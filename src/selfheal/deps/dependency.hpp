// Dependence relations among committed task instances (Section II.B-D).
//
// Precedence t_i < t_j is log order. Over that order we derive, per
// Definition 1:
//   * flow dependence   t_i ->_f t_j : t_j reads a data object whose
//     LAST writer before t_j is t_i (writes between t_i and t_j mask the
//     dependence -- the "union of intermediate writes" in the paper's
//     formula is read as the overwrite mask, which is what damage
//     propagation needs: reading an overwritten value cannot infect);
//   * anti-flow         t_i ->_a t_j : t_j is the next writer of an
//     object after t_i read it;
//   * output            t_i ->_o t_j : t_j is the next writer of an
//     object after t_i wrote it.
// and, from the workflow specification (Section II.D):
//   * control           t_i ->_c t_j : same run, task(t_i) is a branch
//     node dominating task(t_j), task(t_j) avoidable. Edges are emitted
//     from the most recent instance of each dominant node, and because
//     dominant_nodes() walks the full dominator chain the emitted edges
//     already realise the transitive relation ->_c*.
//
// The analyzer is INCREMENTAL and STREAMING: a long-lived instance
// tracks a growing SystemLog and ingests only the new entries per
// refresh() -- O(their accesses). Recovery entries (undo/redo/fresh) no
// longer invalidate the graph: because every dependence edge points
// from an earlier logical slot to a later one, a recovery round can
// only change the schedule at slots >= the earliest entry it touched,
// so refresh() splices the graph -- truncate the suffix from that slot,
// retract its taint tags, and re-ingest the repaired suffix in schedule
// order. The result is PHYSICALLY identical (same edge array, byte for
// byte) to a scratch rebuild over the new effective schedule; a full
// rebuild survives only as a checked fallback, counted in
// `deps.full_rebuilds`.
//
// Damage taint is propagated ONLINE as entries are ingested (SLEUTH-
// style streaming tag propagation): an instance is tainted iff it is
// flow-reachable from a live malicious entry, maintained at O(1) per
// ingested edge and retracted when recovery evicts the source. An alert
// that covers all live malicious entries reads its damage frontier
// straight off the materialized taint set -- O(frontier), no closure
// walk over clean regions.
//
// Each dependence fact is kept once. Per object, the index holds its
// effective reads and writes in schedule order; the last writer and the
// reads since it are read off those lists, so a splice only pops them.
// In-adjacency is an implicit CSR over the edge array, out-adjacency is
// one O(1)-append linked chain per source, and closures reuse an epoch-
// stamped visited array, so query cost scales with the damage closure,
// not the log.
//
// Queries mutate reusable scratch state (epoch stamps, worklist):
// instances are NOT safe for concurrent use from multiple threads.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "selfheal/engine/system_log.hpp"
#include "selfheal/wfspec/workflow_spec.hpp"

namespace selfheal::deps {

using engine::InstanceId;

enum class DepKind : std::uint8_t { kFlow, kAnti, kOutput, kControl };

[[nodiscard]] const char* to_string(DepKind kind);

struct DepEdge {
  InstanceId from = engine::kInvalidInstance;
  InstanceId to = engine::kInvalidInstance;
  DepKind kind = DepKind::kFlow;
  /// The object carrying a data dependence; kInvalidObject for control.
  wfspec::ObjectId object = wfspec::kInvalidObject;

  bool operator==(const DepEdge&) const = default;
};

/// Builds and incrementally maintains the dependence graph over the
/// EFFECTIVE execution of a system log (SystemLog::effective():
/// originals before any recovery, the repaired schedule afterwards).
/// Full construction is O(log size x accesses); incremental refresh is
/// O(new entries x accesses).
class DependencyAnalyzer {
 public:
  using EdgeIndex = std::uint32_t;

  /// An empty analyzer; call rebuild()/refresh() to attach it to a log.
  DependencyAnalyzer() = default;

  /// Builds the full graph over `log` (equivalent to rebuild()). Keeps a
  /// reference to `spec_of_run`, the engine's own vector, not a copy.
  DependencyAnalyzer(const engine::SystemLog& log,
                     const std::vector<const wfspec::WorkflowSpec*>& spec_of_run);

  /// Discards all state and rebuilds over the log's current effective
  /// view. Counted in the `deps.full_rebuilds` metric.
  void rebuild(const engine::SystemLog& log,
               const std::vector<const wfspec::WorkflowSpec*>& spec_of_run);

  /// Brings the graph up to date with `log`. New ORIGINAL entries are
  /// appended in O(their accesses) -- they always sort at the tail of
  /// the effective schedule, so the existing graph is a valid prefix.
  /// Recovery entries (undo/redo/fresh) are applied as an incremental
  /// SPLICE: the schedule suffix from the earliest touched slot is
  /// truncated (tag retractions included) and the repaired suffix is
  /// re-ingested, leaving the graph byte-identical to a scratch rebuild
  /// at O(suffix) cost -- bounded by the damage region's slot span, not
  /// the log. Returns true when an incremental path was taken; false
  /// only on (re)attachment to a new log or the checked fallback
  /// rebuild.
  bool refresh(const engine::SystemLog& log,
               const std::vector<const wfspec::WorkflowSpec*>& spec_of_run);

  /// True iff the graph covers every entry of `log`: refresh() would
  /// have nothing to do.
  [[nodiscard]] bool synced_with(const engine::SystemLog& log) const noexcept {
    return log_ == &log && n_ == log.size();
  }

  [[nodiscard]] const std::vector<DepEdge>& edges() const noexcept { return edges_; }
  [[nodiscard]] const DepEdge& edge(EdgeIndex index) const { return edges_[index]; }

  /// Incoming edges of an instance as a zero-copy span: every edge added
  /// while ingesting instance i targets i, so in-edges are a contiguous
  /// range of edges() -- the in-adjacency is implicitly CSR.
  [[nodiscard]] std::span<const DepEdge> in_edges(InstanceId i) const;

  /// Visits the index of every outgoing edge of `i`, newest first, by
  /// walking its source chain. A caller that needs edge-array order sorts
  /// what it collects.
  template <typename Visitor>
  void for_each_out_edge(InstanceId i, Visitor visit) const {
    const auto node = static_cast<std::size_t>(i);
    if (node >= out_head_.size()) return;
    for (std::int32_t e = out_head_[node]; e >= 0;
         e = out_next_[static_cast<std::size_t>(e)]) {
      visit(static_cast<EdgeIndex>(e));
    }
  }

  [[nodiscard]] bool depends(InstanceId from, InstanceId to, DepKind kind) const;

  /// Forward closure over flow edges from `seeds` -- the paper's
  /// t_i ->_f^* t_j damage spreading (Theorem 1 condition 3) -- into
  /// `out`, which must not alias `seeds`. The result contains the seeds
  /// and is sorted by instance id (= commit order).
  void flow_closure(std::span<const InstanceId> seeds,
                    std::vector<InstanceId>& out) const;

  /// Instances control-dependent (transitively) on `branch`, sorted,
  /// into `out`.
  void controlled_by(InstanceId branch, std::vector<InstanceId>& out) const;

  /// One effective-schedule read or write of `object`, in slot order.
  /// The read index lets Theorem 1 c4 find "who read object o after slot
  /// s" by binary search instead of rescanning the effective log (see
  /// readers_after).
  struct ReaderRecord {
    engine::SeqNo slot = 0;
    InstanceId reader = engine::kInvalidInstance;
    /// On a write: the object's read count when the write was ingested,
    /// the writer's own read included, so the reads since the last write
    /// are readers_of(o)[writers_of(o).back().read_mark ..). 0 on a read.
    std::uint32_t read_mark = 0;

    bool operator==(const ReaderRecord&) const = default;
  };

  /// All effective reads of `object`, sorted by (slot, reader).
  [[nodiscard]] std::span<const ReaderRecord> readers_of(
      wfspec::ObjectId object) const;

  /// Appends to `out` every instance that read `object` at a logical
  /// slot strictly after `slot`. O(log readers + matches).
  void readers_after(wfspec::ObjectId object, engine::SeqNo slot,
                     std::vector<InstanceId>& out) const;

  /// All effective writes of `object`, sorted by (slot, writer); the
  /// record's `reader` field names the writer. The last one is the
  /// object's current writer.
  [[nodiscard]] std::span<const ReaderRecord> writers_of(
      wfspec::ObjectId object) const;

  /// The effective schedule covered by the graph, in (slot, id) order.
  [[nodiscard]] std::span<const InstanceId> schedule() const noexcept {
    return schedule_;
  }

  /// Effective instances of `run`, in schedule order (empty if none).
  [[nodiscard]] std::span<const InstanceId> run_instances(engine::RunId run) const;

  /// Number of log entries covered by the graph (== log size at the last
  /// rebuild/refresh; instance ids are < this).
  [[nodiscard]] std::size_t instance_count() const noexcept { return n_; }

  // --- Streaming taint layer (online damage tracking). ---

  /// True iff `i` is damage-tainted: flow-reachable (transitively) from
  /// a live malicious entry of the current effective schedule. Tags are
  /// propagated during ingest and retracted when recovery evicts the
  /// carrying entries.
  [[nodiscard]] bool tainted(InstanceId i) const noexcept {
    const auto node = static_cast<std::size_t>(i);
    return node < taint_.size() && (taint_[node] & kTainted) != 0;
  }

  /// Live malicious entries currently in the graph (the taint sources).
  [[nodiscard]] std::size_t taint_source_count() const noexcept {
    return taint_sources_;
  }

  /// The materialized damage frontier into `out`: every tainted
  /// instance, sorted by id. O(frontier log frontier) -- no graph walk.
  void tainted_frontier(std::vector<InstanceId>& out) const;

  /// Visits the live malicious entries (the taint sources), unsorted.
  /// O(frontier).
  template <typename Visitor>
  void for_each_taint_source(Visitor visit) const {
    for (const auto id : tainted_ids_) {
      if ((taint_[static_cast<std::size_t>(id)] & kSource) != 0) visit(id);
    }
  }

  /// True iff `seeds` (sorted, deduplicated) is exactly the set of live
  /// malicious entries in the graph -- the condition under which the
  /// materialized taint set IS the flow closure of `seeds` and an alert
  /// can skip the closure walk entirely.
  [[nodiscard]] bool frontier_covers(const std::vector<InstanceId>& seeds) const;

 private:
  void add_edge(InstanceId from, InstanceId to, DepKind kind,
                wfspec::ObjectId object);
  /// Ingests one effective-schedule entry (reads, writes, control), in
  /// schedule order. All edges added here target entry.id. Propagates
  /// the streaming taint tag as a side effect.
  void ingest(const engine::TaskInstance& entry);
  /// Applies a batch containing recovery entries as a graph splice:
  /// truncate the schedule suffix from the earliest touched slot,
  /// retract its taint, re-ingest the repaired suffix. Returns false if
  /// a structural invariant check failed (caller falls back to rebuild).
  [[nodiscard]] bool splice_recovery(const engine::SystemLog& log);
  void reset_state();
  void ensure_object(wfspec::ObjectId object);
  [[nodiscard]] const wfspec::WorkflowSpec* spec_for(engine::RunId run) const;

  // Taint tag bits.
  static constexpr std::uint8_t kTainted = 1;  // flow-reachable from a source
  static constexpr std::uint8_t kSource = 2;   // live malicious entry

  // --- Graph: edges, in-CSR (implicit), out-adjacency as chains. ---
  std::vector<DepEdge> edges_;
  /// In-edges of instance i are edges()[in_begin_[i] .. +in_count_[i]).
  std::vector<EdgeIndex> in_begin_;
  std::vector<EdgeIndex> in_count_;
  /// Per-source linked chains over all edges, newest first: out_head_
  /// [node] is the newest edge of node (-1 none), out_next_[edge] the
  /// next older edge of the same source. Truncating the edge array pops
  /// chain heads in O(dropped edges), which is what lets recovery splice
  /// the graph instead of rebuilding it.
  std::vector<std::int32_t> out_head_;
  std::vector<std::int32_t> out_next_;

  // --- Dense sweep state, keyed by interned ids. ---
  /// Effective reads and writes of each object, in ingest order. They are
  /// the object's whole sweep state: the last writer is the last write
  /// record, and its read_mark starts the reads since that write.
  std::vector<std::vector<ReaderRecord>> readers_by_object_;
  std::vector<std::vector<ReaderRecord>> writers_by_object_;
  /// Latest instance of each (run, task) seen: run r's task t sits at
  /// last_instance_[last_instance_base_[r] + t]. A run's block is
  /// appended when its first entry is ingested (kNoBlock until then).
  std::vector<InstanceId> last_instance_;
  std::vector<std::uint32_t> last_instance_base_;
  static constexpr std::uint32_t kNoBlock = ~std::uint32_t{0};
  /// Ingested instances of each run in schedule order (only entries with
  /// a spec, mirroring last_instance_ updates): popped on truncation so
  /// last_instance state can be rebuilt per affected run.
  std::vector<std::vector<InstanceId>> instances_by_run_;
  /// The ingested effective schedule, in (logical_slot, id) order. The
  /// graph's edge blocks follow exactly this order, so a slot boundary
  /// maps to an edge-array prefix.
  std::vector<InstanceId> schedule_;

  // --- Streaming taint state. ---
  std::vector<std::uint8_t> taint_;       // per instance: kTainted|kSource
  std::vector<InstanceId> tainted_ids_;   // unsorted materialized frontier
  std::size_t taint_sources_ = 0;

  // --- Sync bookkeeping. ---
  const engine::SystemLog* log_ = nullptr;
  const std::vector<const wfspec::WorkflowSpec*>* specs_ = nullptr;
  std::size_t recovery_entries_seen_ = 0;
  /// Log prefix consumed so far; instance arrays cover ids [0, n_).
  std::size_t n_ = 0;

  // --- Reusable closure scratch (epoch-stamped visited array). ---
  mutable std::vector<std::uint32_t> stamp_;
  mutable std::uint32_t epoch_ = 0;

  // --- Reusable splice scratch: the (run, task) pairs whose last
  // instance was popped, and the repaired suffix to re-ingest. ---
  std::vector<std::pair<std::size_t, wfspec::TaskId>> dirty_tasks_;
  std::vector<InstanceId> suffix_;
};

/// Graphviz rendering of the dependence graph over the effective
/// execution: nodes are task instances (malicious ones highlighted),
/// edges coloured by kind and labelled with the carrying object (named
/// through the catalog of the run that owns the edge's source).
[[nodiscard]] std::string to_dot(
    const DependencyAnalyzer& deps, const engine::SystemLog& log,
    const std::vector<const wfspec::WorkflowSpec*>& spec_of_run);

}  // namespace selfheal::deps
