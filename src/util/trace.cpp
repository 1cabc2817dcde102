#include "util/trace.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace lobster::util {

namespace {

/// Shortest representation that round-trips a double exactly ("%.17g",
/// which is what std::to_chars' general format at precision 17 is defined
/// as), so reconstruction from a trace reproduces segment times bit for bit
/// and trace files are byte-deterministic.
void append_number(std::string& out, double v) {
  char buf[32];
  const auto r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

/// Names and categories are identifiers/dotted paths by convention, but a
/// stray quote or backslash must not corrupt the JSON.
void append_escaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    if (*s == '"' || *s == '\\') out += '\\';
    out += *s;
  }
}

constexpr const char* kChromeHead = "{\"traceEvents\":[\n";
constexpr const char* kChromeTail = "\n]}\n";

}  // namespace

const char* to_string(TraceFormat f) {
  switch (f) {
    case TraceFormat::Jsonl: return "jsonl";
    case TraceFormat::Chrome: return "chrome";
  }
  return "?";
}

const char* trace_extension(TraceFormat f) {
  return f == TraceFormat::Chrome ? ".json" : ".jsonl";
}

TraceFormat parse_trace_format(const std::string& s) {
  if (s == "jsonl") return TraceFormat::Jsonl;
  if (s == "chrome") return TraceFormat::Chrome;
  throw std::invalid_argument("unknown trace format '" + s +
                              "' (expected jsonl or chrome)");
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

void Tracer::open(TraceFormat format, std::string path) {
  open_ = true;
  format_ = format;
  first_event_ = true;
  path_ = std::move(path);
  buf_ = format == TraceFormat::Chrome ? kChromeHead : "";
}

void Tracer::event(char phase, const char* cat, const char* name,
                   std::uint64_t track, std::span<const TraceArg> args) {
  const bool chrome = format_ == TraceFormat::Chrome;
  if (chrome) {
    if (!first_event_) buf_ += ",\n";
    buf_ += "{\"ph\":\"";
    buf_ += phase;
    buf_ += "\",\"ts\":";
    append_number(buf_, now() * 1e6);  // Chrome timestamps are microseconds
    buf_ += ",\"pid\":0,\"tid\":";
  } else {
    buf_ += "{\"ev\":\"";
    buf_ += phase;
    buf_ += "\",\"t\":";
    append_number(buf_, now());
    buf_ += ",\"track\":";
  }
  first_event_ = false;
  append_u64(buf_, track);
  if (chrome || phase != 'C') {  // a JSONL counter carries no category
    buf_ += ",\"cat\":\"";
    append_escaped(buf_, cat);
    buf_ += '"';
  }
  buf_ += ",\"name\":\"";
  append_escaped(buf_, name);
  buf_ += '"';
  if (phase == 'C' && !chrome) {  // a JSONL counter's value is top-level
    buf_ += ",\"value\":";
    append_number(buf_, args[0].value);
  } else {
    if (chrome && phase == 'i') buf_ += ",\"s\":\"t\"";  // thread-scoped
    if (!args.empty()) {
      buf_ += ",\"args\":{";
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i) buf_ += ',';
        buf_ += '"';
        append_escaped(buf_, args[i].key);
        buf_ += "\":";
        append_number(buf_, args[i].value);
      }
      buf_ += '}';
    }
  }
  buf_ += chrome ? "}" : "}\n";
}

void Tracer::close() {
  if (!open_) return;
  open_ = false;
  if (format_ == TraceFormat::Chrome) buf_ += kChromeTail;
  if (path_.empty()) return;  // in-memory trace: the caller reads buffer()
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  if (!f) throw std::runtime_error("trace: cannot open '" + path_ + "'");
  const std::size_t n = std::fwrite(buf_.data(), 1, buf_.size(), f);
  const bool ok = n == buf_.size() && std::fclose(f) == 0;
  if (!ok) throw std::runtime_error("trace: short write to '" + path_ + "'");
  std::string().swap(buf_);  // the file holds it now
}

// ---------------------------------------------------------------------------
// CounterRegistry
// ---------------------------------------------------------------------------

Counter& CounterRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& CounterRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

std::vector<CounterRegistry::Sample> CounterRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<Sample> out;
  out.reserve(counters_.size() + gauges_.size());
  // Both maps are name-ordered; a two-way merge keeps the combined view
  // sorted without re-sorting.
  auto c = counters_.begin();
  auto g = gauges_.begin();
  while (c != counters_.end() || g != gauges_.end()) {
    const bool take_counter =
        g == gauges_.end() ||
        (c != counters_.end() && c->first <= g->first);
    if (take_counter) {
      out.push_back({c->first, static_cast<double>(c->second->value()), false});
      ++c;
    } else {
      out.push_back({g->first, g->second->value(), true});
      ++g;
    }
  }
  return out;
}

std::vector<CounterRegistry::Sample> CounterRegistry::snapshot_delta(
    const std::vector<Sample>& before, const std::vector<Sample>& after) {
  // Both inputs are name-ordered (snapshot() guarantees it), so a merge
  // walk pairs them up in one pass.
  std::vector<Sample> out;
  out.reserve(after.size());
  std::size_t b = 0;
  for (const Sample& a : after) {
    while (b < before.size() && before[b].name < a.name) ++b;
    const double prev =
        (b < before.size() && before[b].name == a.name) ? before[b].value : 0.0;
    out.push_back({a.name, a.value - prev, a.is_gauge});
  }
  return out;
}

double EwmaRate::update(double now, double total) {
  if (!primed_) {
    primed_ = true;
    last_t_ = now;
    last_total_ = total;
    return rate_;
  }
  const double dt = now - last_t_;
  if (!(dt > 0.0)) return rate_;  // same-instant resample: keep the level
  const double inst = (total - last_total_) / dt;
  const double alpha = 1.0 - std::exp(-dt / tau_);
  rate_ += alpha * (inst - rate_);
  last_t_ = now;
  last_total_ = total;
  return rate_;
}

// ---------------------------------------------------------------------------
// Trace reading
// ---------------------------------------------------------------------------

double TraceEvent::arg(const std::string& key, double fallback) const {
  for (const auto& [k, v] : args)
    if (k == key) return v;
  return fallback;
}

namespace {

/// Minimal scanner over one JSONL event line.  The writer above emits flat
/// objects with string or number values plus one optional flat "args"
/// object; this parser accepts exactly that shape.
class LineParser {
 public:
  LineParser(const std::string& line, std::size_t lineno)
      : s_(line), lineno_(lineno) {}

  TraceEvent parse() {
    TraceEvent ev;
    expect('{');
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        break;
      }
      if (!first) expect(',');
      first = false;
      const std::string key = parse_string();
      expect(':');
      if (key == "ev") {
        const std::string v = parse_string();
        if (v.size() != 1) fail("bad ev value");
        ev.phase = v[0];
      } else if (key == "t") {
        ev.t = parse_number();
      } else if (key == "track") {
        ev.track = static_cast<std::uint64_t>(parse_number());
      } else if (key == "cat") {
        ev.cat = parse_string();
      } else if (key == "name") {
        ev.name = parse_string();
      } else if (key == "value") {
        ev.value = parse_number();
      } else if (key == "args") {
        parse_args(ev);
      } else {
        skip_value();
      }
    }
    return ev;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("trace: line " + std::to_string(lineno_) + ": " +
                             what);
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  void expect(char c) {
    skip_ws();
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) ++pos_;
      out += s_[pos_++];
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }
  double parse_number() {
    skip_ws();
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) fail("expected a number");
    pos_ += static_cast<std::size_t>(end - start);
    return v;
  }
  void parse_args(TraceEvent& ev) {
    expect('{');
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return;
      }
      if (!first) expect(',');
      first = false;
      const std::string key = parse_string();
      expect(':');
      ev.args.emplace_back(key, parse_number());
    }
  }
  void skip_value() {
    skip_ws();
    if (peek() == '"') {
      parse_string();
    } else {
      parse_number();
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::size_t lineno_;
};

}  // namespace

std::vector<TraceEvent> parse_trace_jsonl(const std::string& text) {
  std::vector<TraceEvent> out;
  std::size_t begin = 0;
  std::size_t lineno = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    ++lineno;
    if (end > begin) {
      const std::string line = text.substr(begin, end - begin);
      out.push_back(LineParser(line, lineno).parse());
    }
    begin = end + 1;
  }
  return out;
}

std::vector<TraceEvent> read_trace_jsonl(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("trace: cannot read '" + path + "'");
  std::string text;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return parse_trace_jsonl(text);
}

std::string validate_trace(const std::vector<TraceEvent>& events) {
  // Every message names the offending span, its track and its timestamp so
  // a failing compare/advisor run can be debugged from the error alone,
  // without opening the JSONL.
  const auto describe = [](const TraceEvent& ev) {
    return "span '" + ev.name + "' on track " + std::to_string(ev.track) +
           " at t=" + std::to_string(ev.t);
  };
  double last_t = 0.0;
  std::map<std::uint64_t, std::vector<const TraceEvent*>> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    const std::string where = "event " + std::to_string(i + 1);
    if (!(ev.t >= 0.0))
      return where + ": negative timestamp (" + describe(ev) + ")";
    if (ev.t < last_t)
      return where + ": timestamp " + std::to_string(ev.t) +
             " goes backwards (previous " + std::to_string(last_t) + ", " +
             describe(ev) + ")";
    last_t = ev.t;
    if (ev.phase == 'B') {
      open[ev.track].push_back(&ev);
    } else if (ev.phase == 'E') {
      auto& stack = open[ev.track];
      if (stack.empty())
        return where + ": end of '" + ev.name + "' with no open span on track " +
               std::to_string(ev.track) + " at t=" + std::to_string(ev.t);
      if (stack.back()->name != ev.name)
        return where + ": end of '" + ev.name + "' at t=" +
               std::to_string(ev.t) + " but innermost open span on track " +
               std::to_string(ev.track) + " is '" + stack.back()->name +
               "' (opened at t=" + std::to_string(stack.back()->t) + ")";
      stack.pop_back();
    } else if (ev.phase != 'i' && ev.phase != 'C') {
      return where + ": unknown phase '" + std::string(1, ev.phase) + "' (" +
             describe(ev) + ")";
    }
  }
  for (const auto& [track, stack] : open) {
    if (!stack.empty())
      return "track " + std::to_string(track) + ": span '" +
             stack.back()->name + "' opened at t=" +
             std::to_string(stack.back()->t) + " never ended";
  }
  return "";
}

}  // namespace lobster::util
