#include "derive/graph.h"

#include <algorithm>
#include <chrono>

#include "base/macros.h"
#include "derive/scheduler.h"

namespace tbm {

namespace {
/// Dirty-log entries retained before the window is trimmed. Large
/// enough that any engine evaluating with normal cadence reconciles
/// incrementally; an engine further behind falls back to a full
/// invalidation.
constexpr size_t kDirtyLogWindow = 4096;
}  // namespace

DerivationGraph::DerivationGraph(const DerivationRegistry* registry)
    : registry_(registry) {}

DerivationGraph::~DerivationGraph() = default;

DerivationGraph::DerivationGraph(DerivationGraph&& other) noexcept
    : registry_(other.registry_),
      nodes_(std::move(other.nodes_)),
      mutation_seq_(other.mutation_seq_),
      dirty_log_(std::move(other.dirty_log_)),
      dirty_trimmed_seq_(other.dirty_trimmed_seq_) {
  // other's builtin engine points at `other`; it cannot be adopted.
  // Ours is rebuilt lazily (its cache starts cold, which is safe).
  other.nodes_.clear();
  other.dirty_log_.clear();
  other.builtin_engine_.reset();
}

DerivationGraph& DerivationGraph::operator=(DerivationGraph&& other) noexcept {
  if (this != &other) {
    registry_ = other.registry_;
    nodes_ = std::move(other.nodes_);
    mutation_seq_ = other.mutation_seq_;
    dirty_log_ = std::move(other.dirty_log_);
    dirty_trimmed_seq_ = other.dirty_trimmed_seq_;
    builtin_engine_.reset();
    other.nodes_.clear();
    other.dirty_log_.clear();
    other.builtin_engine_.reset();
  }
  return *this;
}

DerivationEngine* DerivationGraph::BuiltinEngine() {
  if (builtin_engine_ == nullptr) {
    builtin_engine_ = std::make_unique<DerivationEngine>(this, EvalOptions{});
  }
  return builtin_engine_.get();
}

NodeId DerivationGraph::AddLeaf(MediaValue value, std::string name) {
  Node node;
  node.name = name.empty() ? "leaf" + std::to_string(nodes_.size())
                           : std::move(name);
  node.value = std::make_shared<const MediaValue>(std::move(value));
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

Result<NodeId> DerivationGraph::AddDerived(const std::string& op,
                                           std::vector<NodeId> inputs,
                                           AttrMap params, std::string name) {
  TBM_ASSIGN_OR_RETURN(const DerivationOp* op_info, registry_->Find(op));
  if (inputs.size() != op_info->arg_kinds.size()) {
    return Status::InvalidArgument(
        "derivation \"" + op + "\" takes " +
        std::to_string(op_info->arg_kinds.size()) + " input(s), got " +
        std::to_string(inputs.size()));
  }
  for (NodeId input : inputs) {
    TBM_RETURN_IF_ERROR(CheckId(input));
  }
  Node node;
  node.name = name.empty() ? "derived" + std::to_string(nodes_.size())
                           : std::move(name);
  node.op = op;
  node.inputs = std::move(inputs);
  node.params = std::move(params);
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

Status DerivationGraph::UpdateParams(NodeId id, AttrMap params) {
  TBM_RETURN_IF_ERROR(CheckId(id));
  Node& node = nodes_[id];
  if (node.value != nullptr) {
    return Status::InvalidArgument("node " + std::to_string(id) +
                                   " is a leaf and has no parameters");
  }
  node.params = std::move(params);
  ++mutation_seq_;
  dirty_log_.emplace_back(mutation_seq_, id);
  if (dirty_log_.size() > kDirtyLogWindow) {
    size_t drop = dirty_log_.size() / 2;
    dirty_trimmed_seq_ = dirty_log_[drop - 1].first;
    dirty_log_.erase(dirty_log_.begin(),
                     dirty_log_.begin() + static_cast<ptrdiff_t>(drop));
  }
  return Status::OK();
}

std::vector<NodeId> DerivationGraph::DirtyNodesSince(uint64_t seq) const {
  if (seq < dirty_trimmed_seq_) {
    return {kDirtyLogTrimmed};  // The log no longer reaches back to seq.
  }
  std::vector<NodeId> dirty;
  for (const auto& [at, id] : dirty_log_) {
    if (at > seq) dirty.push_back(id);
  }
  return dirty;
}

Status DerivationGraph::CheckId(NodeId id) const {
  if (id < 0 || id >= static_cast<NodeId>(nodes_.size())) {
    return Status::NotFound("no derivation node " + std::to_string(id));
  }
  return Status::OK();
}

Result<std::string> DerivationGraph::NameOf(NodeId id) const {
  TBM_RETURN_IF_ERROR(CheckId(id));
  return nodes_[id].name;
}

Result<ValueRef> DerivationGraph::Evaluate(NodeId id) {
  return BuiltinEngine()->Evaluate(id);
}

void DerivationGraph::DropCache() {
  if (builtin_engine_ != nullptr) builtin_engine_->InvalidateAll();
}

Result<uint64_t> DerivationGraph::DerivationRecordBytes(NodeId id) const {
  TBM_RETURN_IF_ERROR(CheckId(id));
  const Node& node = nodes_[id];
  if (node.value != nullptr) {
    return sizeof(NodeId);  // A leaf contributes only its reference.
  }
  BinaryWriter writer;
  writer.WriteString(node.op);
  writer.WriteVarU64(node.inputs.size());
  for (NodeId input : node.inputs) writer.WriteVarI64(input);
  node.params.Serialize(&writer);
  uint64_t total = writer.size();
  for (NodeId input : node.inputs) {
    TBM_ASSIGN_OR_RETURN(uint64_t sub, DerivationRecordBytes(input));
    total += sub;
  }
  return total;
}

Result<DerivationGraph::Feasibility> DerivationGraph::MeasureFeasibility(
    NodeId id) {
  TBM_RETURN_IF_ERROR(CheckId(id));
  DropCache();
  auto start = std::chrono::steady_clock::now();
  TBM_ASSIGN_OR_RETURN(ValueRef value, Evaluate(id));
  auto end = std::chrono::steady_clock::now();
  Feasibility feasibility;
  feasibility.expansion_seconds =
      std::chrono::duration<double>(end - start).count();
  feasibility.presentation_seconds = PresentationSeconds(*value);
  feasibility.real_time =
      feasibility.expansion_seconds <= feasibility.presentation_seconds;
  return feasibility;
}

std::vector<DerivationGraph::NodeInfo> DerivationGraph::Nodes() const {
  std::vector<NodeInfo> infos;
  infos.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    NodeInfo info;
    info.id = static_cast<NodeId>(i);
    info.name = node.name;
    info.derived = node.value == nullptr;
    info.op = node.op;
    info.inputs = node.inputs;
    infos.push_back(std::move(info));
  }
  return infos;
}

}  // namespace tbm
