#include "xrootd/federation.hpp"

#include <algorithm>
#include <limits>

namespace lobster::xrootd {

void RedirectorTable::add_replica(const std::string& lfn,
                                  const std::string& site) {
  if (lfn.empty() || site.empty())
    throw std::invalid_argument("redirector: empty lfn or site");
  replicas_[lfn].push_back(site);
}

std::vector<std::string> RedirectorTable::locate(const std::string& lfn) const {
  const auto it = replicas_.find(lfn);
  if (it == replicas_.end()) return {};
  return it->second;
}

std::optional<std::string> RedirectorTable::pick(const std::string& lfn) {
  const auto it = replicas_.find(lfn);
  if (it == replicas_.end() || it->second.empty()) return std::nullopt;
  const std::size_t i = next_[lfn]++ % it->second.size();
  return it->second[i];
}

FederationSim::FederationSim(des::Simulation& sim, const Params& params)
    : sim_(sim),
      params_(params),
      ctr_streams_(&sim.counters().counter("xrootd.federation.streams")),
      ctr_stages_(&sim.counters().counter("xrootd.federation.stages")),
      ctr_failed_opens_(&sim.counters().counter("xrootd.federation.failed_opens")),
      ctr_outages_(&sim.counters().counter("xrootd.federation.outages")),
      ctr_bytes_streamed_(&sim.counters().gauge("xrootd.federation.bytes_streamed")),
      ctr_bytes_staged_(&sim.counters().gauge("xrootd.federation.bytes_staged")) {
  if (params_.paths.empty()) {
    // One campus: the shared uplink is path 0, with no trunk behind it.
    params_.paths.push_back({"campus", params_.campus_uplink_rate, 0});
  } else {
    if (params_.trunks.empty())
      throw std::invalid_argument("federation: paths require trunks");
    for (const Params::Trunk& t : params_.trunks) {
      if (t.rate <= 0.0)
        throw std::invalid_argument("federation: bad trunk rate");
      trunk_links_.push_back(std::make_unique<des::BandwidthLink>(sim, t.rate));
    }
  }
  for (const Params::Path& p : params_.paths) {
    if (p.uplink_rate <= 0.0 ||
        (!trunk_links_.empty() && p.trunk >= trunk_links_.size()))
      throw std::invalid_argument("federation: bad path");
    path_links_.push_back(
        std::make_unique<des::BandwidthLink>(sim, p.uplink_rate));
  }
  path_outage_depth_.assign(params_.paths.size(), 0);
  path_epoch_.assign(params_.paths.size(), 0);
  path_bytes_.assign(params_.paths.size(), 0.0);
}

bool FederationSim::path_down(std::size_t path) const {
  return outage_depth_ > 0 || path_outage_depth_[path] > 0;
}

void FederationSim::schedule_outage(double start, double duration) {
  if (start < 0.0 || duration <= 0.0)
    throw std::invalid_argument("federation: bad outage window");
  sim_.schedule(start, [this] {
    ++outage_counter_;
    ctr_outages_->add();
    sim_.tracer().instant("xrootd", "outage_begin");
    if (outage_depth_++ == 0) {
      // Global event: every site uplink drops (a path already down from
      // its own outage stays at zero either way).
      for (std::size_t i = 0; i < path_links_.size(); ++i)
        path_links_[i]->set_capacity(0.0);
    }
  });
  sim_.schedule(start + duration, [this] {
    if (--outage_depth_ == 0) {
      for (std::size_t i = 0; i < path_links_.size(); ++i)
        if (path_outage_depth_[i] == 0)
          path_links_[i]->set_capacity(params_.paths[i].uplink_rate);
      sim_.tracer().instant("xrootd", "outage_end");
    }
  });
}

void FederationSim::schedule_path_outage(std::size_t path, double start,
                                         double duration) {
  if (path >= path_links_.size())
    throw std::invalid_argument("federation: path outage on unknown path");
  if (start < 0.0 || duration <= 0.0)
    throw std::invalid_argument("federation: bad outage window");
  sim_.schedule(start, [this, path] {
    ++path_epoch_[path];  // streams in flight on this path break
    sim_.tracer().instant("xrootd", "path_outage_begin");
    if (path_outage_depth_[path]++ == 0 && outage_depth_ == 0)
      path_links_[path]->set_capacity(0.0);
  });
  sim_.schedule(start + duration, [this, path] {
    if (--path_outage_depth_[path] == 0 && outage_depth_ == 0) {
      path_links_[path]->set_capacity(params_.paths[path].uplink_rate);
      sim_.tracer().instant("xrootd", "path_outage_end");
    }
  });
}

std::size_t FederationSim::pick_path() const {
  const std::size_t n = path_links_.size();
  if (params_.path_policy == PathPolicy::FirstAvailable) {
    for (std::size_t i = 0; i < n; ++i)
      if (!path_down(i)) return i;
    return n;
  }
  // LeastLoaded: rank by the most-loaded hop.  Load is estimated as
  // per_stream_rate * active_flows / capacity rather than the solved
  // allocation — active_flows() updates the moment a flow joins, so a
  // same-timestamp dispatch burst spreads across paths instead of piling
  // onto whichever looked empty at the last solve; past saturation the
  // same figure ranks paths by queue depth.  Ties go to the lowest index.
  std::size_t best = n;
  const double inf = std::numeric_limits<double>::infinity();
  std::pair<double, double> best_load{inf, inf};
  const auto load = [this](const des::BandwidthLink& l) {
    if (l.capacity() <= 0.0) return std::numeric_limits<double>::infinity();
    return params_.per_stream_rate * static_cast<double>(l.active_flows()) /
           l.capacity();
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (path_down(i)) continue;
    const double up = load(*path_links_[i]);
    // Primary key: the most-loaded hop.  Secondary: the site uplink alone —
    // a shared trunk contributes the same load to every path feeding it,
    // so without the tiebreak a saturated trunk would pin every pick to
    // the lowest index.
    const double hop =
        trunk_links_.empty()
            ? up
            : std::max(up, load(*trunk_links_[params_.paths[i].trunk]));
    const std::pair<double, double> u{hop, up};
    if (u < best_load) {
      best_load = u;
      best = i;
    }
  }
  return best;
}

des::Task<double> FederationSim::transfer(double bytes, double& accounting,
                                          util::Gauge* volume) {
  const double t0 = sim_.now();
  // The redirector picks a path per the policy.  With trunks the stream
  // occupies that site's uplink AND its shared WAN trunk simultaneously and
  // completes when the slower hop drains (fluid series approximation —
  // each hop max-min-shares its own capacity among the flows crossing it).
  const std::size_t p = pick_path();
  if (p == path_links_.size()) {
    ++failed_opens_;
    ctr_failed_opens_->add();
    co_await sim_.delay(params_.open_fail_delay);
    throw AccessError("xrootd: open failed (wide-area path down)");
  }
  const std::uint64_t epoch = outage_counter_ + path_epoch_[p];
  co_await sim_.delay(params_.open_latency);
  if (trunk_links_.empty()) {
    co_await path_links_[p]->transfer(bytes, params_.per_stream_rate);
  } else {
    auto up_done = path_links_[p]->start_flow(bytes, params_.per_stream_rate);
    auto trunk_done = trunk_links_[params_.paths[p].trunk]->start_flow(
        bytes, params_.per_stream_rate);
    co_await *up_done;
    co_await *trunk_done;
  }
  if (outage_counter_ + path_epoch_[p] != epoch) {
    // An outage began while this stream was in flight: the connection
    // broke, and the fluid-model bytes that trickled through are moot —
    // the task sees a read error after the stall.
    throw AccessError("xrootd: stream broken by wide-area outage");
  }
  accounting += bytes;
  volume->add(bytes);
  path_bytes_[p] += bytes;
  co_return sim_.now() - t0;
}

des::Task<double> FederationSim::stream(double bytes) {
  ctr_streams_->add();
  return transfer(bytes, bytes_streamed_, ctr_bytes_streamed_);
}

des::Task<double> FederationSim::stage(double bytes) {
  ctr_stages_->add();
  return transfer(bytes, bytes_staged_, ctr_bytes_staged_);
}

void SiteStore::put(const std::string& lfn, double bytes) {
  if (bytes < 0.0) throw std::invalid_argument("site: negative size");
  files_[lfn] = bytes;
}

bool SiteStore::has(const std::string& lfn) const {
  return files_.count(lfn) > 0;
}

double SiteStore::open(const std::string& lfn) const {
  const auto it = files_.find(lfn);
  if (it == files_.end())
    throw AccessError("xrootd: " + name_ + " has no replica of " + lfn);
  return it->second;
}

void Client::attach_site(std::shared_ptr<SiteStore> site) {
  sites_[site->name()] = std::move(site);
}

std::pair<std::string, double> Client::read(const std::string& lfn) {
  const auto site = redirector_->pick(lfn);
  if (!site) throw AccessError("xrootd: no replica registered for " + lfn);
  const auto it = sites_.find(*site);
  if (it == sites_.end())
    throw AccessError("xrootd: site " + *site + " not attached");
  return {*site, it->second->open(lfn)};
}

}  // namespace lobster::xrootd
