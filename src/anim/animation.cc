#include "anim/animation.h"

#include <algorithm>
#include <cmath>

#include "base/macros.h"

namespace tbm {

void MovementEvent::Serialize(BinaryWriter* writer) const {
  writer->WriteVarI64(start);
  writer->WriteVarI64(duration);
  writer->WriteI32(object_id);
  writer->WriteF64(to_x);
  writer->WriteF64(to_y);
}

Result<MovementEvent> MovementEvent::Deserialize(BinaryReader* reader) {
  MovementEvent m;
  TBM_ASSIGN_OR_RETURN(m.start, reader->ReadVarI64());
  TBM_ASSIGN_OR_RETURN(m.duration, reader->ReadVarI64());
  TBM_ASSIGN_OR_RETURN(m.object_id, reader->ReadI32());
  TBM_ASSIGN_OR_RETURN(m.to_x, reader->ReadF64());
  TBM_ASSIGN_OR_RETURN(m.to_y, reader->ReadF64());
  return m;
}

Status AnimationScene::AddObject(SceneObject object) {
  for (const SceneObject& existing : objects_) {
    if (existing.id == object.id) {
      return Status::AlreadyExists("object id " + std::to_string(object.id) +
                                   " already in scene");
    }
  }
  objects_.push_back(object);
  return Status::OK();
}

Status AnimationScene::AddMovement(MovementEvent movement) {
  if (movement.duration <= 0) {
    return Status::InvalidArgument("movement duration must be positive");
  }
  bool found = false;
  for (const SceneObject& object : objects_) {
    if (object.id == movement.object_id) {
      found = true;
      break;
    }
  }
  if (!found) {
    return Status::NotFound("no scene object with id " +
                            std::to_string(movement.object_id));
  }
  // Per-object movements must be sequential in time.
  for (auto it = movements_.rbegin(); it != movements_.rend(); ++it) {
    if (it->object_id == movement.object_id) {
      if (movement.start < it->start + it->duration) {
        return Status::InvalidArgument(
            "movement overlaps a previous movement of object " +
            std::to_string(movement.object_id));
      }
      break;
    }
  }
  auto it = std::upper_bound(
      movements_.begin(), movements_.end(), movement.start,
      [](int64_t start, const MovementEvent& m) { return start < m.start; });
  movements_.insert(it, movement);
  return Status::OK();
}

int64_t AnimationScene::EndTick() const {
  int64_t end = 0;
  for (const MovementEvent& m : movements_) {
    end = std::max(end, m.start + m.duration);
  }
  return end;
}

Result<std::pair<double, double>> AnimationScene::PositionAt(
    int32_t object_id, int64_t tick) const {
  const SceneObject* object = nullptr;
  for (const SceneObject& o : objects_) {
    if (o.id == object_id) {
      object = &o;
      break;
    }
  }
  if (object == nullptr) {
    return Status::NotFound("no scene object with id " +
                            std::to_string(object_id));
  }
  double x = object->x, y = object->y;
  for (const MovementEvent& m : movements_) {
    if (m.object_id != object_id) continue;
    if (m.start > tick) break;
    if (tick >= m.start + m.duration) {
      x = m.to_x;
      y = m.to_y;
    } else {
      double f = static_cast<double>(tick - m.start) / m.duration;
      x = x + (m.to_x - x) * f;
      y = y + (m.to_y - y) * f;
      break;
    }
  }
  return std::make_pair(x, y);
}

Result<Image> AnimationScene::RenderFrame(int64_t tick) const {
  Image frame{width_, height_, ColorModel::kRgb24, {}};
  Bytes pixels_out(
      Image::ExpectedBytes(frame.width, frame.height, frame.model));
  for (size_t i = 0; i < pixels_out.size(); i += 3) {
    pixels_out[i] = bg_r_;
    pixels_out[i + 1] = bg_g_;
    pixels_out[i + 2] = bg_b_;
  }
  for (const SceneObject& object : objects_) {
    TBM_ASSIGN_OR_RETURN(auto pos, PositionAt(object.id, tick));
    const auto [cx, cy] = pos;
    const int32_t size = object.size;
    const int32_t x0 = std::max<int32_t>(0, static_cast<int32_t>(cx) - size);
    const int32_t x1 =
        std::min<int32_t>(width_ - 1, static_cast<int32_t>(cx) + size);
    const int32_t y0 = std::max<int32_t>(0, static_cast<int32_t>(cy) - size);
    const int32_t y1 =
        std::min<int32_t>(height_ - 1, static_cast<int32_t>(cy) + size);
    for (int32_t y = y0; y <= y1; ++y) {
      for (int32_t x = x0; x <= x1; ++x) {
        bool inside = object.shape == ShapeKind::kRectangle ||
                      std::hypot(x - cx, y - cy) <= size;
        if (!inside) continue;
        uint8_t* px =
            pixels_out.data() + 3 * (static_cast<size_t>(y) * width_ + x);
        px[0] = object.r;
        px[1] = object.g;
        px[2] = object.b;
      }
    }
  }
  frame.data = std::move(pixels_out);
  return frame;
}

Result<std::vector<Image>> AnimationScene::RenderClip(int64_t count) const {
  std::vector<Image> frames;
  frames.reserve(count);
  for (int64_t t = 0; t < count; ++t) {
    TBM_ASSIGN_OR_RETURN(Image frame, RenderFrame(t));
    frames.push_back(std::move(frame));
  }
  return frames;
}

Result<TimedStream> AnimationScene::ToTimedStream() const {
  MediaDescriptor desc;
  desc.type_name = "animation/scene";
  desc.kind = MediaKind::kAnimation;
  desc.attrs.SetRational("frame rate", frame_rate_);
  desc.attrs.SetInt("width", width_);
  desc.attrs.SetInt("height", height_);
  TimedStream stream(desc, TimeSystem(frame_rate_));
  for (const MovementEvent& m : movements_) {
    StreamElement element;
    BinaryWriter writer;
    m.Serialize(&writer);
    element.data = writer.TakeBuffer();
    element.start = m.start;
    element.duration = m.duration;
    element.descriptor.SetInt("object", m.object_id);
    TBM_RETURN_IF_ERROR(stream.Append(std::move(element)));
  }
  return stream;
}

Result<TimedStream> AnimationScene::ToSceneStream() const {
  MediaDescriptor desc;
  desc.type_name = "animation/scene";
  desc.kind = MediaKind::kAnimation;
  desc.attrs.SetRational("frame rate", frame_rate_);
  desc.attrs.SetInt("width", width_);
  desc.attrs.SetInt("height", height_);
  desc.attrs.SetString("encoding", "scene");
  TimedStream stream(desc, TimeSystem(frame_rate_));
  BinaryWriter writer;
  Serialize(&writer);
  TBM_RETURN_IF_ERROR(
      stream.AppendContiguous(writer.TakeBuffer(), EndTick() + 1));
  return stream;
}

Result<AnimationScene> AnimationScene::FromSceneStream(
    const TimedStream& stream) {
  if (stream.size() != 1) {
    return Status::InvalidArgument(
        "scene stream must hold exactly one serialized scene element");
  }
  BinaryReader reader(stream.at(0).data);
  return Deserialize(&reader);
}

void AnimationScene::Serialize(BinaryWriter* writer) const {
  writer->WriteI32(width_);
  writer->WriteI32(height_);
  writer->WriteVarI64(frame_rate_.num());
  writer->WriteVarI64(frame_rate_.den());
  writer->WriteU8(bg_r_);
  writer->WriteU8(bg_g_);
  writer->WriteU8(bg_b_);
  writer->WriteVarU64(objects_.size());
  for (const SceneObject& o : objects_) {
    writer->WriteI32(o.id);
    writer->WriteU8(static_cast<uint8_t>(o.shape));
    writer->WriteU8(o.r);
    writer->WriteU8(o.g);
    writer->WriteU8(o.b);
    writer->WriteI32(o.size);
    writer->WriteF64(o.x);
    writer->WriteF64(o.y);
  }
  writer->WriteVarU64(movements_.size());
  for (const MovementEvent& m : movements_) m.Serialize(writer);
}

Result<AnimationScene> AnimationScene::Deserialize(BinaryReader* reader) {
  AnimationScene scene;
  TBM_ASSIGN_OR_RETURN(scene.width_, reader->ReadI32());
  TBM_ASSIGN_OR_RETURN(scene.height_, reader->ReadI32());
  TBM_ASSIGN_OR_RETURN(int64_t num, reader->ReadVarI64());
  TBM_ASSIGN_OR_RETURN(int64_t den, reader->ReadVarI64());
  if (num <= 0 || den <= 0) return Status::Corruption("bad frame rate");
  scene.frame_rate_ = Rational(num, den);
  TBM_ASSIGN_OR_RETURN(scene.bg_r_, reader->ReadU8());
  TBM_ASSIGN_OR_RETURN(scene.bg_g_, reader->ReadU8());
  TBM_ASSIGN_OR_RETURN(scene.bg_b_, reader->ReadU8());
  TBM_ASSIGN_OR_RETURN(uint64_t object_count, reader->ReadVarU64());
  for (uint64_t i = 0; i < object_count; ++i) {
    SceneObject o;
    TBM_ASSIGN_OR_RETURN(o.id, reader->ReadI32());
    TBM_ASSIGN_OR_RETURN(uint8_t shape, reader->ReadU8());
    if (shape > static_cast<uint8_t>(ShapeKind::kRectangle)) {
      return Status::Corruption("bad shape kind");
    }
    o.shape = static_cast<ShapeKind>(shape);
    TBM_ASSIGN_OR_RETURN(o.r, reader->ReadU8());
    TBM_ASSIGN_OR_RETURN(o.g, reader->ReadU8());
    TBM_ASSIGN_OR_RETURN(o.b, reader->ReadU8());
    TBM_ASSIGN_OR_RETURN(o.size, reader->ReadI32());
    TBM_ASSIGN_OR_RETURN(o.x, reader->ReadF64());
    TBM_ASSIGN_OR_RETURN(o.y, reader->ReadF64());
    TBM_RETURN_IF_ERROR(scene.AddObject(o));
  }
  TBM_ASSIGN_OR_RETURN(uint64_t movement_count, reader->ReadVarU64());
  for (uint64_t i = 0; i < movement_count; ++i) {
    TBM_ASSIGN_OR_RETURN(MovementEvent m, MovementEvent::Deserialize(reader));
    TBM_RETURN_IF_ERROR(scene.AddMovement(m));
  }
  return scene;
}

}  // namespace tbm
