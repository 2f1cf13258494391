// Geographic replication (Section III: "The data may be replicated across
// multiple geographic areas for high availability and disaster recovery in
// case one site fails").
//
// A ReplicatedStore fronts one primary HomeDataStore plus N replicas on
// distinct nodes. A site fails the way every SimNet node does: inside a
// crash window (SimNet::crash_node). Each write gets the next version
// number of its key from the group, so one version names one value on
// every site. put() writes through the key's serving site — the freshest
// site outside a crash window, so a replica is promoted while the primary
// is down and keeps serving until the primary has caught up — and
// synchronizes the others by delta (cheap) or full value; clients fetch
// from the serving site, so a read never returns an older version than
// an earlier read while a site holding the newer one is up.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "src/dist/home_store.h"

namespace coda::dist {

/// Ships one `bytes`-sized sync message from `primary` to `replica` under
/// `retry`. Returns false — counting the pinned `replication.failed_syncs`
/// family (attributed to the primary's node shard) and a flight-recorder
/// event — when the replica is inside a crash window or unreachable past
/// the retry budget; the replica then keeps its old state and catches up
/// on a later sync. Shared by ReplicatedStore::put and the DARR shard
/// replication (darr::ShardedDarrService).
bool sync_replica(SimNet& net, NodeId primary, NodeId replica,
                  std::size_t bytes, const RetryPolicy& retry,
                  const std::string& op, const std::string& key);

/// A primary-plus-replicas group of home data stores.
class ReplicatedStore {
 public:
  struct Config {
    HomeDataStore::Config store;
    bool delta_sync = true;  ///< synchronize replicas by delta when smaller
  };

  struct SyncStats {
    std::size_t full_syncs = 0;
    std::size_t delta_syncs = 0;
    /// Replica syncs skipped (replica inside a crash window) or abandoned
    /// after the retry budget (the replica keeps its old version and
    /// catches up on the next put() or resync()).
    std::size_t failed_syncs = 0;
    std::size_t bytes_shipped = 0;
  };

  /// Creates the group: `nodes[0]` is the primary, the rest replicas.
  ReplicatedStore(SimNet* net, std::vector<NodeId> nodes);
  ReplicatedStore(SimNet* net, std::vector<NodeId> nodes, Config config);

  std::size_t n_sites() const { return stores_.size(); }
  HomeDataStore& site(std::size_t i);

  /// Writes the next version of `key` through its serving site and
  /// synchronizes every other site to it; a site inside a crash window
  /// misses the write (counted in failed_syncs) and catches up on a later
  /// put() or resync(). Throws NotFound when every site is down.
  void put(const std::string& key, Bytes value);

  /// Brings site `i` (one whose crash window has ended) to the serving
  /// site's version of every key it lags on; a sync that fails is counted
  /// in failed_syncs and left for a later put() or resync().
  void resync(std::size_t i);

  /// Serves a fetch of `key` from its serving site. Throws NotFound when
  /// every site is down.
  HomeDataStore::FetchResult fetch(const std::string& key, NodeId requester,
                                   std::uint64_t have_version);

  /// Index of the site serving `key`: the site outside a crash window that
  /// holds its highest version, ties going to the lowest index (so the
  /// primary when it is up and current). Throws NotFound if every site is
  /// down.
  std::size_t serving_site(const std::string& key) const;

  const SyncStats& sync_stats() const { return sync_stats_; }

 private:
  SimNet* net_;
  Config config_;
  std::vector<NodeId> nodes_;
  std::vector<std::unique_ptr<HomeDataStore>> stores_;
  /// Ships `bytes` from site `source` to site `i` and applies the source's
  /// value and version of `key` there; counts a failed sync and returns
  /// false when the transfer fails.
  bool sync_site(std::size_t source, std::size_t i, const std::string& key,
                 std::size_t bytes, const std::string& op);

  /// Last version issued per key: every key ever written (for resync).
  std::map<std::string, std::uint64_t> issued_;
  SyncStats sync_stats_;
};

}  // namespace coda::dist
