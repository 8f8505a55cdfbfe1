#include "compose/multimedia.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "base/macros.h"

namespace tbm {

Status MultimediaObject::AddComponent(
    const std::string& relationship_name, NodeId media,
    Rational start_seconds, std::optional<SpatialPlacement> spatial) {
  if (start_seconds.IsNegative()) {
    return Status::InvalidArgument("component start must be >= 0");
  }
  for (const Component& c : components_) {
    if (c.name == relationship_name) {
      return Status::AlreadyExists("component \"" + relationship_name +
                                   "\" already present");
    }
  }
  if (!graph_->NameOf(media).ok()) {
    return Status::NotFound("no media node " + std::to_string(media));
  }
  Component component;
  component.name = relationship_name;
  component.media = media;
  component.start_seconds = start_seconds;
  component.spatial = spatial;
  components_.push_back(std::move(component));
  return Status::OK();
}

Result<std::vector<MultimediaObject::TimelineEntry>>
MultimediaObject::Timeline() const {
  std::vector<TimelineEntry> entries;
  for (const Component& component : components_) {
    TBM_ASSIGN_OR_RETURN(ValueRef value, graph_->Evaluate(component.media));
    TimelineEntry entry;
    entry.component = component.name;
    TBM_ASSIGN_OR_RETURN(entry.media, graph_->NameOf(component.media));
    entry.kind = KindOfValue(*value);
    double duration = PresentationSeconds(*value);
    entry.interval.start = component.start_seconds;
    // Durations measured from media values are doubles; quantize to
    // milliseconds for exact timeline arithmetic.
    entry.interval.end =
        component.start_seconds +
        Rational(static_cast<int64_t>(std::llround(duration * 1000)), 1000);
    entries.push_back(std::move(entry));
  }
  return entries;
}

Result<Rational> MultimediaObject::Duration() const {
  TBM_ASSIGN_OR_RETURN(auto timeline, Timeline());
  Rational end(0);
  for (const TimelineEntry& entry : timeline) {
    if (entry.interval.end > end) end = entry.interval.end;
  }
  return end;
}

Result<IntervalRelation> MultimediaObject::RelationBetween(
    const std::string& a, const std::string& b) const {
  TBM_ASSIGN_OR_RETURN(auto timeline, Timeline());
  const TimelineEntry* ea = nullptr;
  const TimelineEntry* eb = nullptr;
  for (const TimelineEntry& entry : timeline) {
    if (entry.component == a) ea = &entry;
    if (entry.component == b) eb = &entry;
  }
  if (ea == nullptr || eb == nullptr) {
    return Status::NotFound("component not found");
  }
  return Classify(ea->interval, eb->interval);
}

Status MultimediaObject::RequireRelation(const std::string& a,
                                         const std::string& b,
                                         IntervalRelation relation) {
  bool have_a = false, have_b = false;
  for (const Component& component : components_) {
    if (component.name == a) have_a = true;
    if (component.name == b) have_b = true;
  }
  if (!have_a || !have_b) {
    return Status::NotFound("sync rule references unknown component");
  }
  rules_.push_back(SyncRule{a, b, relation});
  return Status::OK();
}

Status MultimediaObject::ValidateRelations() const {
  for (const SyncRule& rule : rules_) {
    TBM_ASSIGN_OR_RETURN(IntervalRelation actual,
                         RelationBetween(rule.a, rule.b));
    if (actual != rule.relation) {
      return Status::FailedPrecondition(
          "sync rule violated: " + rule.a + " must be '" +
          std::string(IntervalRelationToString(rule.relation)) + "' " +
          rule.b + " but is '" +
          std::string(IntervalRelationToString(actual)) + "'");
    }
  }
  return Status::OK();
}

Result<std::string> MultimediaObject::RenderTimelineAscii(int columns) const {
  TBM_ASSIGN_OR_RETURN(auto timeline, Timeline());
  TBM_ASSIGN_OR_RETURN(Rational total, Duration());
  if (total.IsZero()) return std::string("(empty timeline)\n");
  std::string out;
  size_t name_width = 8;
  for (const TimelineEntry& e : timeline) {
    name_width = std::max(name_width, e.media.size() + 1);
  }
  for (const TimelineEntry& e : timeline) {
    std::string row = e.media;
    row.resize(name_width, ' ');
    row += "|";
    double scale = columns / total.ToDouble();
    int begin = static_cast<int>(e.interval.start.ToDouble() * scale);
    int end = static_cast<int>(e.interval.end.ToDouble() * scale);
    end = std::max(end, begin + 1);
    for (int col = 0; col < columns; ++col) {
      row += (col >= begin && col < end) ? '#' : ' ';
    }
    row += "|\n";
    out += row;
  }
  // Time ruler.
  std::string ruler(name_width, ' ');
  ruler += "0";
  double total_seconds = total.ToDouble();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fs", total_seconds);
  int pad = columns - static_cast<int>(std::string(buf).size());
  ruler += std::string(std::max(1, pad), ' ');
  ruler += buf;
  ruler += "\n";
  out += ruler;
  return out;
}

Result<AudioBuffer> MultimediaObject::MixAudio(int64_t sample_rate,
                                               int32_t channels) const {
  if (sample_rate <= 0 || channels <= 0) {
    return Status::InvalidArgument("bad mix format");
  }
  TBM_ASSIGN_OR_RETURN(Rational total, Duration());
  int64_t frames = RescaleTicks(1, total * Rational(sample_rate),
                                Rounding::kCeil);
  std::vector<double> mix(static_cast<size_t>(frames) * channels, 0.0);
  for (const Component& component : components_) {
    TBM_ASSIGN_OR_RETURN(ValueRef value, graph_->Evaluate(component.media));
    const AudioBuffer* audio = std::get_if<AudioBuffer>(value.get());
    if (audio == nullptr) continue;  // Only audio components contribute.
    if (audio->sample_rate != sample_rate || audio->channels != channels) {
      return Status::InvalidArgument(
          "component \"" + component.name +
          "\" format differs from mix format; insert an 'audio resample' "
          "derivation");
    }
    int64_t offset = RescaleTicks(
        1, component.start_seconds * Rational(sample_rate), Rounding::kNearest);
    for (int64_t f = 0; f < audio->FrameCount(); ++f) {
      int64_t out_frame = offset + f;
      if (out_frame < 0 || out_frame >= frames) continue;
      for (int32_t c = 0; c < channels; ++c) {
        mix[out_frame * channels + c] += audio->samples[f * channels + c];
      }
    }
  }
  AudioBuffer out;
  out.sample_rate = sample_rate;
  out.channels = channels;
  std::vector<int16_t> samples(mix.size());
  for (size_t i = 0; i < mix.size(); ++i) {
    samples[i] = static_cast<int16_t>(
        std::clamp(std::lround(mix[i]), -32768L, 32767L));
  }
  out.samples = std::move(samples);
  return out;
}

Result<Image> MultimediaObject::RenderFrameAt(double t_seconds, int32_t width,
                                              int32_t height) const {
  if (width <= 0 || height <= 0) {
    return Status::InvalidArgument("bad frame geometry");
  }
  Image canvas{width, height, ColorModel::kRgb24, {}};
  Bytes pixels_out(
      Image::ExpectedBytes(canvas.width, canvas.height, canvas.model));

  struct VisualHit {
    const Component* component;
    ValueRef value;  ///< Pins `frame`, which points into it.
    const Image* frame;
    SpatialPlacement placement;
  };
  std::vector<VisualHit> hits;
  for (const Component& component : components_) {
    TBM_ASSIGN_OR_RETURN(ValueRef value, graph_->Evaluate(component.media));
    const VideoValue* video = std::get_if<VideoValue>(value.get());
    const Image* still = std::get_if<Image>(value.get());
    const Image* frame = nullptr;
    if (video != nullptr) {
      double local = t_seconds - component.start_seconds.ToDouble();
      if (local < 0) continue;
      int64_t index =
          static_cast<int64_t>(local * video->frame_rate.ToDouble());
      if (index >= static_cast<int64_t>(video->frames.size())) continue;
      frame = &video->frames[index];
    } else if (still != nullptr) {
      if (t_seconds < component.start_seconds.ToDouble()) continue;
      frame = still;
    } else {
      continue;  // Non-visual component.
    }
    if (frame->model != ColorModel::kRgb24) {
      return Status::Unsupported("visual components must be RGB");
    }
    SpatialPlacement placement =
        component.spatial.value_or(SpatialPlacement{});
    hits.push_back(VisualHit{&component, std::move(value), frame, placement});
  }
  std::stable_sort(hits.begin(), hits.end(),
                   [](const VisualHit& a, const VisualHit& b) {
                     return a.placement.layer < b.placement.layer;
                   });
  for (const VisualHit& hit : hits) {
    const Image& src = *hit.frame;
    for (int32_t y = 0; y < src.height; ++y) {
      int32_t dy = hit.placement.y + y;
      if (dy < 0 || dy >= height) continue;
      for (int32_t x = 0; x < src.width; ++x) {
        int32_t dx = hit.placement.x + x;
        if (dx < 0 || dx >= width) continue;
        const uint8_t* sp =
            src.data.data() + 3 * (static_cast<size_t>(y) * src.width + x);
        uint8_t* dp =
            pixels_out.data() + 3 * (static_cast<size_t>(dy) * width + dx);
        dp[0] = sp[0];
        dp[1] = sp[1];
        dp[2] = sp[2];
      }
    }
  }
  canvas.data = std::move(pixels_out);
  return canvas;
}

}  // namespace tbm
