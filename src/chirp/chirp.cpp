#include "chirp/chirp.hpp"

#include <cstdio>

namespace lobster::chirp {

namespace {
bool path_in_scope(const std::string& scope, const std::string& path) {
  if (scope == "/" || scope.empty()) return true;
  if (path.size() < scope.size()) return false;
  if (path.compare(0, scope.size(), scope) != 0) return false;
  return path.size() == scope.size() || path[scope.size()] == '/' ||
         scope.back() == '/';
}
}  // namespace

ChirpServer::ChirpServer(std::ptrdiff_t max_connections)
    : connections_(max_connections) {
  if (max_connections <= 0)
    throw std::invalid_argument("chirp: max_connections must be positive");
}

std::string ChirpServer::issue_ticket(const std::string& scope, Rights rights) {
  std::lock_guard lock(mutex_);
  char buf[64];
  std::snprintf(buf, sizeof buf, "ticket-%08llx",
                static_cast<unsigned long long>(next_ticket_++));
  tickets_[buf] = Ticket{scope, rights};
  return buf;
}

void ChirpServer::revoke_ticket(const std::string& ticket) {
  std::lock_guard lock(mutex_);
  tickets_.erase(ticket);
}

ChirpServer::Session ChirpServer::connect(const std::string& ticket) {
  Ticket t;
  {
    std::lock_guard lock(mutex_);
    const auto it = tickets_.find(ticket);
    if (it == tickets_.end()) throw ChirpError("chirp: unknown ticket");
    t = it->second;
  }
  connections_.acquire();  // blocks at the connection limit
  return Session(this, t.scope, t.rights);
}

ChirpServer::Session::Session(ChirpServer* server, std::string scope,
                              Rights rights)
    : server_(server), scope_(std::move(scope)), rights_(rights) {}

ChirpServer::Session::Session(Session&& o) noexcept
    : server_(o.server_), scope_(std::move(o.scope_)), rights_(o.rights_) {
  o.server_ = nullptr;
}

ChirpServer::Session::~Session() {
  if (server_) server_->connections_.release();
}

void ChirpServer::check_scope(const std::string& scope,
                              const std::string& path) const {
  if (!path_in_scope(scope, path))
    throw ChirpError("chirp: path " + path + " outside ticket scope " + scope);
}

const std::string& ChirpServer::file(const std::string& path) const {
  const auto it = files_.find(path);
  if (it == files_.end()) throw ChirpError("chirp: no such file " + path);
  return it->second;
}

void ChirpServer::bind_counters(util::CounterRegistry& registry) {
  ctr_requests_ = &registry.counter("chirp.server.requests");
  ctr_bytes_in_ = &registry.gauge("chirp.server.bytes_in");
  ctr_bytes_out_ = &registry.gauge("chirp.server.bytes_out");
}

void ChirpServer::Session::put(const std::string& path, std::string content) {
  if (!has_right(rights_, Rights::Write))
    throw ChirpError("chirp: ticket lacks write right");
  server_->check_scope(scope_, path);
  std::lock_guard lock(server_->mutex_);
  ++server_->requests_;
  util::bump(server_->ctr_requests_);
  server_->bytes_in_ += static_cast<double>(content.size());
  util::bump(server_->ctr_bytes_in_, static_cast<double>(content.size()));
  server_->files_[path] = std::move(content);
}

void ChirpServer::Session::append(const std::string& path,
                                  const std::string& content) {
  if (!has_right(rights_, Rights::Write))
    throw ChirpError("chirp: ticket lacks write right");
  server_->check_scope(scope_, path);
  std::lock_guard lock(server_->mutex_);
  ++server_->requests_;
  util::bump(server_->ctr_requests_);
  server_->bytes_in_ += static_cast<double>(content.size());
  util::bump(server_->ctr_bytes_in_, static_cast<double>(content.size()));
  server_->files_[path] += content;
}

std::string ChirpServer::Session::get(const std::string& path) const {
  if (!has_right(rights_, Rights::Read))
    throw ChirpError("chirp: ticket lacks read right");
  server_->check_scope(scope_, path);
  std::lock_guard lock(server_->mutex_);
  ++server_->requests_;
  util::bump(server_->ctr_requests_);
  std::string content = server_->file(path);
  server_->bytes_out_ += static_cast<double>(content.size());
  util::bump(server_->ctr_bytes_out_, static_cast<double>(content.size()));
  return content;
}

FileInfo ChirpServer::Session::stat(const std::string& path) const {
  if (!has_right(rights_, Rights::Read))
    throw ChirpError("chirp: ticket lacks read right");
  server_->check_scope(scope_, path);
  std::lock_guard lock(server_->mutex_);
  ++server_->requests_;
  util::bump(server_->ctr_requests_);
  return FileInfo{path, server_->file(path).size()};
}

std::vector<FileInfo> ChirpServer::Session::list(
    const std::string& prefix) const {
  if (!has_right(rights_, Rights::List))
    throw ChirpError("chirp: ticket lacks list right");
  server_->check_scope(scope_, prefix);
  std::lock_guard lock(server_->mutex_);
  ++server_->requests_;
  util::bump(server_->ctr_requests_);
  std::vector<FileInfo> out;
  for (auto it = server_->files_.lower_bound(prefix);
       it != server_->files_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it)
    out.push_back(FileInfo{it->first, it->second.size()});
  return out;
}

void ChirpServer::Session::remove(const std::string& path) {
  if (!has_right(rights_, Rights::Write))
    throw ChirpError("chirp: ticket lacks write right");
  server_->check_scope(scope_, path);
  std::lock_guard lock(server_->mutex_);
  ++server_->requests_;
  util::bump(server_->ctr_requests_);
  if (server_->files_.erase(path) == 0)
    throw ChirpError("chirp: no such file " + path);
}

std::uint64_t ChirpServer::total_requests() const {
  std::lock_guard lock(mutex_);
  return requests_;
}

double ChirpServer::bytes_in() const {
  std::lock_guard lock(mutex_);
  return bytes_in_;
}

double ChirpServer::bytes_out() const {
  std::lock_guard lock(mutex_);
  return bytes_out_;
}

std::size_t ChirpServer::num_files() const {
  std::lock_guard lock(mutex_);
  return files_.size();
}

ChirpSim::ChirpSim(des::Simulation& sim, const Params& params)
    : sim_(sim),
      params_(params),
      connections_(sim, params.max_connections),
      nic_(sim, params.nic_rate),
      ctr_puts_(&sim.counters().counter("chirp.sim.puts")),
      ctr_gets_(&sim.counters().counter("chirp.sim.gets")),
      ctr_bytes_in_(&sim.counters().gauge("chirp.sim.bytes_in")),
      ctr_bytes_out_(&sim.counters().gauge("chirp.sim.bytes_out")) {}

des::Task<double> ChirpSim::transfer(double bytes, double& accounting,
                                     util::Gauge* volume) {
  const double t0 = sim_.now();
  auto slot = co_await connections_.acquire();
  co_await sim_.delay(params_.request_latency);
  co_await nic_.transfer(bytes);
  accounting += bytes;
  volume->add(bytes);
  const double wall = sim_.now() - t0;
  const double unloaded = params_.request_latency + bytes / params_.nic_rate;
  slowdown_sum_ += wall / unloaded;
  ++completed_;
  co_return wall;
}

des::Task<double> ChirpSim::put(double bytes) {
  ctr_puts_->add();
  return transfer(bytes, bytes_in_, ctr_bytes_in_);
}

des::Task<double> ChirpSim::get(double bytes) {
  ctr_gets_->add();
  return transfer(bytes, bytes_out_, ctr_bytes_out_);
}

double ChirpSim::mean_slowdown() const {
  return completed_ ? slowdown_sum_ / static_cast<double>(completed_) : 1.0;
}

}  // namespace lobster::chirp
