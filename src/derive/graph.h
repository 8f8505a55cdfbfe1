#ifndef TBM_DERIVE_GRAPH_H_
#define TBM_DERIVE_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "derive/operators.h"

namespace tbm {

/// Node handle within a DerivationGraph.
using NodeId = int64_t;

class DerivationEngine;

/// A DAG of media objects related by derivation.
///
/// Leaves are non-derived media objects (materialized from
/// interpretations or constructed); internal nodes are *derivation
/// objects* (Def. 6): "the information needed to compute a derived
/// object, references to the media objects and parameter values used."
/// The graph stores the specification of each derivation step rather
/// than its result (§4.2: "rather than storing the results of
/// derivations it is possible to store the specification of each
/// derivation step"); expansion is performed by a DerivationEngine
/// (derive/scheduler.h), which schedules independent nodes across
/// threads and caches expansions under a byte budget.
///
/// Because nodes can only reference previously created nodes, the
/// structure is acyclic by construction.
///
/// Thread-safety: the graph may be read by many engine workers
/// concurrently, but must not be mutated (AddLeaf / AddDerived /
/// UpdateParams) while an evaluation is in flight.
class DerivationGraph {
 public:
  /// Uses the built-in operator registry unless one is supplied.
  explicit DerivationGraph(
      const DerivationRegistry* registry = &DerivationRegistry::Builtin());
  ~DerivationGraph();

  // Movable but not copyable: the built-in engine (and any user-created
  // DerivationEngine) holds a pointer to this graph.
  DerivationGraph(DerivationGraph&& other) noexcept;
  DerivationGraph& operator=(DerivationGraph&& other) noexcept;
  DerivationGraph(const DerivationGraph&) = delete;
  DerivationGraph& operator=(const DerivationGraph&) = delete;

  /// Adds a non-derived media object.
  NodeId AddLeaf(MediaValue value, std::string name = "");

  /// Adds a derivation object `op(inputs, params)`. Inputs must exist.
  Result<NodeId> AddDerived(const std::string& op, std::vector<NodeId> inputs,
                            AttrMap params, std::string name = "");

  /// Replaces the parameters of derived node `id` — the non-destructive
  /// edit tweak (adjust a cut point, a gain, a transition length).
  /// Marks the node dirty so engines invalidate its cached expansion
  /// and every transitive dependent's before the next evaluation.
  Status UpdateParams(NodeId id, AttrMap params);

  size_t size() const { return nodes_.size(); }

  Result<std::string> NameOf(NodeId id) const;

  /// Expands (evaluates) a node through the graph's built-in
  /// single-threaded engine, memoizing results in its bounded
  /// expansion cache. For concurrent evaluation or an explicit cache
  /// budget, create a DerivationEngine with EvalOptions instead.
  Result<ValueRef> Evaluate(NodeId id);

  /// Discards every expansion cached by the built-in engine (leaf
  /// values are part of the graph, not cache). Engines created by the
  /// caller invalidate via DerivationEngine::InvalidateAll.
  void DropCache();

  /// Serialized size of the derivation objects (op names, input refs,
  /// parameters) in the subtree rooted at `id` — what the database
  /// stores when the derived object is kept implicit. Leaves contribute
  /// only a reference, not their media bytes. This is the numerator of
  /// the paper's storage-saving ratio ("a video edit list is likely
  /// many orders of magnitude smaller than a video object").
  Result<uint64_t> DerivationRecordBytes(NodeId id) const;

  /// Real-time feasibility (paper §4.2: "the media elements need only
  /// be stored if the calculation cannot be performed in real time").
  struct Feasibility {
    double expansion_seconds = 0.0;     ///< Wall-clock cost of expansion.
    double presentation_seconds = 0.0;  ///< Playback duration of result.
    bool real_time = false;  ///< expansion <= presentation duration.
  };

  /// Measures a cold expansion of `id` (cache is dropped first) and
  /// compares against the result's presentation duration, answering the
  /// store-derived vs store-expanded question.
  Result<Feasibility> MeasureFeasibility(NodeId id);

  /// Introspection (used to print Figure 4-style instance diagrams).
  struct NodeInfo {
    NodeId id = 0;
    std::string name;
    bool derived = false;
    std::string op;             ///< Empty for leaves.
    std::vector<NodeId> inputs; ///< Empty for leaves.
  };
  std::vector<NodeInfo> Nodes() const;

  /// Monotonic counter bumped by every spec-changing mutation
  /// (UpdateParams). Engines compare it against the value they last
  /// synchronized at to decide what to invalidate.
  uint64_t mutation_seq() const { return mutation_seq_; }

  /// Ids of nodes whose specification changed after `seq`, oldest
  /// first. If the change log has been trimmed past `seq` the first
  /// element is kDirtyLogTrimmed and callers must invalidate
  /// everything.
  static constexpr NodeId kDirtyLogTrimmed = -1;
  std::vector<NodeId> DirtyNodesSince(uint64_t seq) const;

 private:
  friend class DerivationEngine;

  struct Node {
    std::string name;
    // Exactly one of value (leaf) / op+inputs+params (derived) is set.
    ValueRef value;
    std::string op;
    std::vector<NodeId> inputs;
    AttrMap params;
  };

  Status CheckId(NodeId id) const;
  DerivationEngine* BuiltinEngine();

  const DerivationRegistry* registry_;
  std::vector<Node> nodes_;
  uint64_t mutation_seq_ = 0;
  /// (mutation_seq at change, node) pairs, oldest first, trimmed to a
  /// bounded window.
  std::vector<std::pair<uint64_t, NodeId>> dirty_log_;
  /// Highest mutation_seq whose log entry has been trimmed away.
  uint64_t dirty_trimmed_seq_ = 0;
  std::unique_ptr<DerivationEngine> builtin_engine_;
};

}  // namespace tbm

#endif  // TBM_DERIVE_GRAPH_H_
