#include "src/dist/replication.h"

#include "src/dist/retry.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace coda::dist {

bool sync_replica(SimNet& net, NodeId primary, NodeId replica,
                  std::size_t bytes, const RetryPolicy& retry,
                  const std::string& op, const std::string& key) {
  // A replica inside a crash window is skipped without burning the retry
  // budget (and the backoff clock): the sync is known-failed immediately.
  if (net.node_up(replica)) {
    try {
      transfer_with_retry(net, primary, replica, bytes, retry, op);
      return true;
    } catch (const NetworkError&) {
      // fall through to the failure accounting
    }
  }
  obs::ScopedCounter failed(
      &obs::counter("replication.failed_syncs"),
      &obs::MetricScope::for_node(net.node_name(primary))
           .counter("replication.failed_syncs"));
  failed.inc();
  obs::event(obs::Severity::kError, "replication.sync.failed",
             {{"key", key}, {"replica", net.node_name(replica)}});
  return false;
}

ReplicatedStore::ReplicatedStore(SimNet* net, std::vector<NodeId> nodes)
    : ReplicatedStore(net, std::move(nodes), Config()) {}

ReplicatedStore::ReplicatedStore(SimNet* net, std::vector<NodeId> nodes,
                                 Config config)
    : net_(net), config_(config), nodes_(std::move(nodes)) {
  require(net != nullptr, "ReplicatedStore: null network");
  require(nodes_.size() >= 2,
          "ReplicatedStore: need a primary and at least one replica");
  stores_.reserve(nodes_.size());
  for (const NodeId node : nodes_) {
    stores_.push_back(
        std::make_unique<HomeDataStore>(net, node, config_.store));
  }
}

HomeDataStore& ReplicatedStore::site(std::size_t i) {
  require(i < stores_.size(), "ReplicatedStore: site index out of range");
  return *stores_[i];
}

void ReplicatedStore::put(const std::string& key, Bytes value) {
  // The serving site applies the write locally under the key's next
  // version; the others receive it over the network, as a delta when they
  // hold the serving site's previous version (the same value, since one
  // version names one value on every site).
  const std::size_t source = serving_site(key);
  HomeDataStore& primary = *stores_[source];
  const std::uint64_t previous_version = primary.version(key);
  const Bytes previous =
      previous_version > 0 ? primary.value(key) : Bytes{};
  primary.put_version(key, value, ++issued_[key]);
  obs::ScopedSpan span("replication.put");
  span.set_node(net_->node_name(nodes_[source]));
  span.tag("key", key);
  for (std::size_t i = 0; i < stores_.size(); ++i) {
    if (i == source) continue;
    std::size_t sync_bytes = value.size();
    bool delta = false;
    if (config_.delta_sync && previous_version > 0 &&
        stores_[i]->version(key) == previous_version) {
      const Delta d = compute_delta(previous, value, config_.store.delta);
      if (d.encoded_size() < value.size()) {
        sync_bytes = d.encoded_size();
        delta = true;
      }
    }
    if (sync_site(source, i, key, sync_bytes, "replication.sync")) {
      ++(delta ? sync_stats_.delta_syncs : sync_stats_.full_syncs);
    }
  }
}

void ReplicatedStore::resync(std::size_t i) {
  require(i < stores_.size(), "ReplicatedStore: site index out of range");
  require(net_->node_up(nodes_[i]),
          "ReplicatedStore: resync of a site inside a crash window");
  for (const auto& entry : issued_) {
    const std::string& key = entry.first;
    const std::size_t source = serving_site(key);
    const HomeDataStore& from = *stores_[source];
    if (stores_[i]->version(key) >= from.version(key)) continue;
    if (sync_site(source, i, key, from.value(key).size(),
                  "replication.resync")) {
      ++sync_stats_.full_syncs;
    }
  }
}

bool ReplicatedStore::sync_site(std::size_t source, std::size_t i,
                                const std::string& key, std::size_t bytes,
                                const std::string& op) {
  // A failed sync (a replica inside a crash window fails at once) leaves
  // the replica on its old version until a later put() or resync().
  if (!sync_replica(*net_, nodes_[source], nodes_[i], bytes,
                    config_.store.retry, op, key)) {
    ++sync_stats_.failed_syncs;
    return false;
  }
  sync_stats_.bytes_shipped += bytes;
  const HomeDataStore& from = *stores_[source];
  stores_[i]->put_version(key, from.value(key), from.version(key));
  return true;
}

std::size_t ReplicatedStore::serving_site(const std::string& key) const {
  std::size_t best = nodes_.size();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!net_->node_up(nodes_[i])) continue;
    if (best == nodes_.size() ||
        stores_[i]->version(key) > stores_[best]->version(key)) {
      best = i;
    }
  }
  if (best == nodes_.size()) {
    throw NotFound("ReplicatedStore: every site is down");
  }
  return best;
}

HomeDataStore::FetchResult ReplicatedStore::fetch(
    const std::string& key, NodeId requester, std::uint64_t have_version) {
  return stores_[serving_site(key)]->fetch(key, requester, have_version);
}

}  // namespace coda::dist
