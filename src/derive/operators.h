#ifndef TBM_DERIVE_OPERATORS_H_
#define TBM_DERIVE_OPERATORS_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "derive/value.h"
#include "media/attr.h"

namespace tbm {

/// The paper's derivation taxonomy (§4.2): a derivation changes a media
/// object's content, its placement in time, or its media type.
enum class DerivationCategory : uint8_t {
  kContent = 0,
  kTiming = 1,
  kType = 2,
};

std::string_view DerivationCategoryToString(DerivationCategory category);

/// Implementation of one derivation D: a mapping D(O, P_D) → O₁
/// (Def. 6) from argument values and parameters to a derived value.
using DerivationFn = std::function<Result<MediaValue>(
    const std::vector<const MediaValue*>& args, const AttrMap& params)>;

/// Shape of a media value: enough metadata to size, chain and validate
/// per-element kernels without materializing the value itself. Only
/// images have element shapes today: audio content ops fuse through
/// their whole-value `fn`, because element kernels measured no gain
/// there.
struct ElementShape {
  MediaKind kind = MediaKind::kImage;
  /// Image geometry.
  int32_t width = 0;
  int32_t height = 0;
  ColorModel model = ColorModel::kGray8;

  /// Total payload size in bytes for this shape.
  size_t PayloadBytes() const;
};

/// The element shape of a value, or Unsupported for kinds that have no
/// per-element representation (audio, video, MIDI, animation, streams).
Result<ElementShape> ShapeOfValue(const MediaValue& value);

/// The value of `shape` whose payload is `payload` (PayloadBytes()
/// bytes): the inverse of ShapeOfValue.
MediaValue ValueOfShape(const ElementShape& shape, Bytes payload);

/// A compiled per-element kernel: one derivation specialized to a
/// concrete input shape and parameter set. The plan compiler chains
/// kernels whose element granularity lines up (kernel B consumes
/// exactly the `out_bytes` kernel A produces per element, over the same
/// `count`) and runs whole chains through one tiled loop with no
/// intermediate MediaValue.
///
/// `run(in, out, first, n)` transforms elements `[first, first + n)`;
/// `in`/`out` point at the first element of the tile and `first` is the
/// absolute element index (for index-dependent math).
/// `in` and `out` may alias only when in_bytes == out_bytes.
///
/// A null `run` means only "not element-wise for these params" (an
/// image filter's box blur gathers neighbours); the op's `fn` then
/// computes the value itself.
struct ElementKernel {
  size_t in_bytes = 0;   ///< Bytes consumed per element.
  size_t out_bytes = 0;  ///< Bytes produced per element.
  size_t count = 0;      ///< Number of elements.
  ElementShape out_shape;
  std::function<void(const uint8_t* in, uint8_t* out, size_t first, size_t n)>
      run;
};

/// Factory for an op's element kernel given the input shape and params.
/// A shape or parameter the op rejects is an error Status carrying the
/// op's user-facing message, so the kernel is the op's only definition
/// of both its bytes and its preconditions.
using ElementKernelFn = std::function<Result<ElementKernel>(
    const ElementShape& in, const AttrMap& params)>;

/// Registry entry: signature and category metadata (the columns of
/// Table 1) plus the evaluator.
struct DerivationOp {
  std::string name;
  std::vector<MediaKind> arg_kinds;
  MediaKind result_kind;
  DerivationCategory category;
  std::string description;
  DerivationFn fn;
  /// Generic timing derivations (paper: "derivations involving changes
  /// in timing are generic in the sense that they apply to all
  /// time-based media"): when true, the single argument may be a timed
  /// stream of any media kind and the result has the same kind.
  bool stream_generic = false;
  /// Per-element kernel factory, set for ops that can run inside a
  /// fused element loop (see ElementKernel); null otherwise. Where it is
  /// set it is the op's only body: `fn` runs the kernel over the whole
  /// value as one tile.
  ElementKernelFn element_fn = nullptr;
};

/// Registry of derivation operators. `Builtin()` carries every
/// derivation the paper names plus the generic timing derivations:
///
/// | name                 | args          | result | category |
/// |----------------------|---------------|--------|----------|
/// | color separation     | image         | image  | content  |
/// | image filter         | image         | image  | content  |
/// | image reencode       | image         | image  | content  |
/// | audio normalization  | audio         | audio  | content  |
/// | audio gain           | audio         | audio  | content  |
/// | audio mix            | audio, audio  | audio  | content  |
/// | audio cut            | audio         | audio  | timing   |
/// | audio concat         | audio, audio  | audio  | timing   |
/// | audio resample       | audio         | audio  | type     |
/// | video edit           | video         | video  | timing   |
/// | video concat         | video, video  | video  | timing   |
/// | video transition     | video, video  | video  | content  |
/// | chroma key           | video, video  | video  | content  |
/// | MIDI synthesis       | music         | audio  | type     |
/// | animation render     | animation     | video  | type     |
/// | temporal translate   | any stream    | same   | timing   |
/// | temporal scale       | any stream    | same   | timing   |
///
/// Parameter naming: canonical parameter keys use spaces, matching the
/// paper's prose — e.g. "target peak", "scale num", "under color
/// removal". Every lookup also accepts the underscore alias
/// ("target_peak", "scale_num", "under_color_removal") for callers
/// whose key syntax cannot carry spaces; when both spellings are
/// present the canonical (spaced) key wins.
class DerivationRegistry {
 public:
  Status Register(DerivationOp op);
  Result<const DerivationOp*> Find(const std::string& name) const;
  std::vector<std::string> Names() const;

  /// Applies an operator after checking arity and argument kinds.
  Result<MediaValue> Apply(const std::string& name,
                           const std::vector<const MediaValue*>& args,
                           const AttrMap& params) const;

  /// Applies an already resolved operator (same checks as Apply).
  Result<MediaValue> ApplyOp(const DerivationOp& op,
                             const std::vector<const MediaValue*>& args,
                             const AttrMap& params) const;

  static const DerivationRegistry& Builtin();

 private:
  std::map<std::string, DerivationOp> ops_;
};

}  // namespace tbm

#endif  // TBM_DERIVE_OPERATORS_H_
