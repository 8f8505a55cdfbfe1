#include "derive/plan.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

namespace tbm {

namespace {

/// Tile size of the fused element loop: large enough to amortize the
/// per-tile dispatch, small enough that a tile of every intermediate
/// stays cache-resident.
constexpr size_t kTileBytes = 64 * 1024;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Raw payload bytes of an image value, plus a mutable pointer
/// when (and only when) `exclusive` is claimed and the value is the
/// sole owner of a writable, exactly-covering buffer — the condition
/// under which the fused executor may transform the payload in place.
struct PayloadView {
  const uint8_t* data = nullptr;
  size_t size = 0;
  uint8_t* writable = nullptr;
};

PayloadView ViewPayload(const MediaValue& value, bool exclusive) {
  PayloadView view;
  if (const Image* image = std::get_if<Image>(&value)) {
    const BufferSlice& slice = image->data;
    view.data = slice.data();
    view.size = slice.size();
    const BufferRef& buffer = slice.buffer();
    if (exclusive && buffer != nullptr && buffer.use_count() == 1 &&
        buffer->mutable_data() != nullptr && slice.data() == buffer->data() &&
        slice.size() == buffer->size()) {
      view.writable = buffer->mutable_data();
    }
  }
  return view;
}

/// Rewrites `value`'s metadata to `shape` after an in-place composed
/// run (payload bytes were transformed through the buffer directly;
/// strides were equal, so sizes already agree).
void ApplyShapeInPlace(MediaValue* value, const ElementShape& shape) {
  if (Image* image = std::get_if<Image>(value)) {
    image->width = shape.width;
    image->height = shape.height;
    image->model = shape.model;
  }
}

/// Executes kernels[0..n) as one tiled pass over `input`. When
/// `owned` is non-null (the input is this stage's exclusively held
/// intermediate) and every kernel preserves the element stride, the
/// pass runs in place on the input payload; otherwise intermediates
/// ping-pong through two tile-sized scratch buffers and only the final
/// kernel's output is materialized.
MediaValue RunComposed(const std::vector<ElementKernel>& kernels,
                       const MediaValue& input, MediaValue* owned,
                       uint64_t* elided_bytes) {
  const size_t count = kernels.front().count;
  const ElementShape& out_shape = kernels.back().out_shape;
  for (size_t k = 0; k + 1 < kernels.size(); ++k) {
    *elided_bytes += count * kernels[k].out_bytes;
  }

  size_t max_stride = kernels.front().in_bytes;
  bool uniform_stride = true;
  for (const ElementKernel& kernel : kernels) {
    max_stride = std::max(max_stride, kernel.out_bytes);
    uniform_stride = uniform_stride &&
                     kernel.in_bytes == kernels.front().in_bytes &&
                     kernel.out_bytes == kernels.front().in_bytes;
  }
  const size_t tile =
      std::clamp<size_t>(kTileBytes / std::max<size_t>(max_stride, 1), 1,
                         std::max<size_t>(count, 1));

  if (owned != nullptr && uniform_stride) {
    PayloadView view = ViewPayload(*owned, /*exclusive=*/true);
    if (view.writable != nullptr) {
      const size_t stride = kernels.front().in_bytes;
      for (size_t first = 0; first < count; first += tile) {
        const size_t n = std::min(tile, count - first);
        uint8_t* p = view.writable + first * stride;
        for (const ElementKernel& kernel : kernels) {
          kernel.run(p, p, first, n);
        }
      }
      ApplyShapeInPlace(owned, out_shape);
      return std::move(*owned);
    }
  }

  PayloadView view = ViewPayload(input, /*exclusive=*/false);
  Bytes output(out_shape.PayloadBytes(), 0);
  const size_t in_stride = kernels.front().in_bytes;
  const size_t out_stride = kernels.back().out_bytes;
  size_t scratch_stride = 0;
  for (size_t k = 0; k + 1 < kernels.size(); ++k) {
    scratch_stride = std::max(scratch_stride, kernels[k].out_bytes);
  }
  std::vector<uint8_t> scratch[2];
  if (scratch_stride > 0) {
    scratch[0].resize(tile * scratch_stride);
    scratch[1].resize(tile * scratch_stride);
  }
  for (size_t first = 0; first < count; first += tile) {
    const size_t n = std::min(tile, count - first);
    const uint8_t* src = view.data + first * in_stride;
    int ping = 0;
    for (size_t k = 0; k < kernels.size(); ++k) {
      uint8_t* dst = (k + 1 == kernels.size())
                         ? output.data() + first * out_stride
                         : scratch[ping].data();
      kernels[k].run(src, dst, first, n);
      src = dst;
      ping ^= 1;
    }
  }
  return ValueOfShape(out_shape, std::move(output));
}

/// Whether a node of `op` may join the stage its input tails, read off
/// the op's Table 1 signature: it is unary, keeps its argument's kind,
/// and changes content or type rather than timing (timing ops share
/// their argument's elements, so there is no payload to stream).
bool JoinsStages(const DerivationOp& op) {
  return op.arg_kinds.size() == 1 && op.result_kind == op.arg_kinds[0] &&
         op.category != DerivationCategory::kTiming && !op.stream_generic;
}

}  // namespace

std::string CompiledPlan::ToString() const {
  std::string out;
  for (size_t s = 0; s < stages.size(); ++s) {
    const PlanStage& stage = stages[s];
    out += "stage " + std::to_string(s) + ": ";
    for (size_t k = 0; k < stage.nodes.size(); ++k) {
      if (k > 0) out += " -> ";
      out += stage.nodes[k].op_name.empty() ? "(leafless)"
                                            : stage.nodes[k].op_name;
      out += "#" + std::to_string(stage.nodes[k].id);
    }
    if (stage.fused()) out += " [fused]";
    out += "\n";
  }
  return out;
}

CompiledPlan CompilePlan(std::vector<PlanNodeSpec> specs,
                         const std::unordered_map<NodeId, int>& consumer_count,
                         bool fuse) {
  CompiledPlan plan;
  plan.stages.reserve(specs.size());
  // Stage index currently tailed by each open (extendable) node value.
  std::unordered_map<NodeId, size_t> open_tail;
  for (PlanNodeSpec& spec : specs) {
    const NodeId id = spec.id;
    const bool extendable = spec.op != nullptr;
    bool appended = false;
    if (fuse && spec.op != nullptr && JoinsStages(*spec.op) &&
        spec.inputs.size() == 1) {
      auto tail = open_tail.find(spec.inputs[0]);
      if (tail != open_tail.end()) {
        auto consumers = consumer_count.find(spec.inputs[0]);
        if (consumers != consumer_count.end() && consumers->second == 1) {
          const size_t stage_index = tail->second;
          open_tail.erase(tail);
          plan.stages[stage_index].nodes.push_back(std::move(spec));
          open_tail[id] = stage_index;
          appended = true;
        }
      }
    }
    if (!appended) {
      plan.stages.push_back(PlanStage{{std::move(spec)}});
      if (extendable) open_tail[id] = plan.stages.size() - 1;
    }
  }
  for (const PlanStage& stage : plan.stages) {
    if (stage.fused()) plan.fused_nodes += stage.nodes.size();
  }
  return plan;
}

Result<MediaValue> ExecuteFusedStage(const DerivationRegistry& registry,
                                     const PlanStage& stage,
                                     const std::vector<const MediaValue*>& args,
                                     FusedStageStats* stats) {
  stats->node_seconds.assign(stage.nodes.size(), 0.0);
  stats->elided_bytes = 0;
  stats->nodes_run = 0;

  MediaValue current;
  bool have_current = false;
  size_t i = 0;
  while (i < stage.nodes.size()) {
    const PlanNodeSpec& node = stage.nodes[i];
    if (node.op == nullptr) {
      return Status::Internal("fused stage contains an unresolved op \"" +
                              node.op_name + "\"");
    }

    // Open the longest composed element-kernel run starting at node i.
    // The head may join only when unary (its single external argument
    // is then the run input); later starts read the staged value.
    const MediaValue* run_input = nullptr;
    if (i == 0) {
      if (args.size() == 1 && node.inputs.size() == 1) run_input = args[0];
    } else {
      run_input = &current;
    }
    std::vector<ElementKernel> kernels;
    if (run_input != nullptr) {
      Result<ElementShape> shape_or = ShapeOfValue(*run_input);
      if (shape_or.ok()) {
        ElementShape shape = *shape_or;
        for (size_t j = i; j < stage.nodes.size(); ++j) {
          const PlanNodeSpec& candidate = stage.nodes[j];
          if (candidate.op == nullptr || candidate.op->element_fn == nullptr) {
            break;
          }
          if (j == 0 && (candidate.op->arg_kinds.size() != 1 ||
                         candidate.op->stream_generic)) {
            break;
          }
          Result<ElementKernel> kernel_or =
              candidate.op->element_fn(shape, *candidate.params);
          if (!kernel_or.ok() || kernel_or->run == nullptr) break;
          if (kernels.empty()) {
            // The first kernel must consume exactly the input payload.
            if (kernel_or->in_bytes * kernel_or->count !=
                ViewPayload(*run_input, false).size) {
              break;
            }
          } else if (kernel_or->count != kernels.back().count ||
                     kernel_or->in_bytes != kernels.back().out_bytes) {
            break;
          }
          shape = kernel_or->out_shape;
          kernels.push_back(std::move(*kernel_or));
        }
      }
    }

    if (!kernels.empty()) {
      auto start = std::chrono::steady_clock::now();
      MediaValue* owned = (i > 0) ? &current : nullptr;
      MediaValue result =
          RunComposed(kernels, *run_input, owned, &stats->elided_bytes);
      const double each = SecondsSince(start) / kernels.size();
      for (size_t k = 0; k < kernels.size(); ++k) {
        stats->node_seconds[i + k] = each;
      }
      stats->nodes_run += kernels.size();
      current = std::move(result);
      have_current = true;
      i += kernels.size();
      continue;
    }

    // Whole-value fallback for node i alone.
    const std::vector<const MediaValue*> staged{&current};
    auto start = std::chrono::steady_clock::now();
    Result<MediaValue> result =
        registry.ApplyOp(*node.op, i == 0 ? args : staged, *node.params);
    stats->node_seconds[i] = SecondsSince(start);
    ++stats->nodes_run;
    if (!result.ok()) {
      return result.status().WithContext("evaluating '" + node.label + "'");
    }
    current = std::move(*result);
    have_current = true;
    ++i;
  }

  if (!have_current) {
    return Status::Internal("fused stage executed no nodes");
  }
  return current;
}

}  // namespace tbm
