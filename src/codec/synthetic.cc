#include "codec/synthetic.h"

#include <algorithm>
#include <cmath>

namespace tbm {
namespace videogen {

namespace {

// Small deterministic hash for per-scene parameters.
uint32_t Mix(uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352dU;
  x ^= x >> 15;
  x *= 0x846ca68bU;
  x ^= x >> 16;
  return x;
}

double Param(uint32_t scene_id, uint32_t salt, double lo, double hi) {
  uint32_t h = Mix(scene_id * 0x9e3779b9U + salt);
  return lo + (hi - lo) * (h / 4294967295.0);
}

}  // namespace

Image Frame(int32_t width, int32_t height, int64_t frame_index,
            uint32_t scene_id) {
  Image img{width, height, ColorModel::kRgb24, {}};
  Bytes pixels_out(Image::ExpectedBytes(img.width, img.height, img.model));
  const double t = static_cast<double>(frame_index);

  // Scene-dependent palette and motion.
  const double base_r = Param(scene_id, 1, 40, 200);
  const double base_g = Param(scene_id, 2, 40, 200);
  const double base_b = Param(scene_id, 3, 40, 200);
  const double drift = Param(scene_id, 4, 0.2, 1.5);
  const double disc_radius = Param(scene_id, 5, 0.08, 0.2) *
                             std::min(width, height);
  const double disc_speed = Param(scene_id, 6, 0.01, 0.05);
  const double disc2_speed = Param(scene_id, 7, 0.008, 0.04);

  const double cx1 = width * (0.5 + 0.35 * std::sin(disc_speed * t));
  const double cy1 = height * (0.5 + 0.35 * std::cos(disc_speed * t * 0.9));
  const double cx2 = width * (0.5 + 0.3 * std::cos(disc2_speed * t + 1.7));
  const double cy2 = height * (0.5 + 0.3 * std::sin(disc2_speed * t + 0.4));

  for (int32_t y = 0; y < height; ++y) {
    for (int32_t x = 0; x < width; ++x) {
      // Drifting diagonal gradient.
      double g = (x + y + drift * t) / (width + height);
      g -= std::floor(g);
      double r_val = base_r + 55.0 * g;
      double g_val = base_g + 55.0 * (1.0 - g);
      double b_val = base_b + 40.0 * std::sin(2.0 * M_PI * g);

      // Two moving discs.
      double d1 = std::hypot(x - cx1, y - cy1);
      if (d1 < disc_radius) {
        double s = 1.0 - d1 / disc_radius;
        r_val = r_val * (1 - s) + 235.0 * s;
        g_val = g_val * (1 - s) + 80.0 * s;
        b_val = b_val * (1 - s) + 60.0 * s;
      }
      double d2 = std::hypot(x - cx2, y - cy2);
      if (d2 < disc_radius * 0.7) {
        double s = 1.0 - d2 / (disc_radius * 0.7);
        r_val = r_val * (1 - s) + 50.0 * s;
        g_val = g_val * (1 - s) + 90.0 * s;
        b_val = b_val * (1 - s) + 220.0 * s;
      }

      uint8_t* px = pixels_out.data() + 3 * (static_cast<size_t>(y) * width + x);
      px[0] = static_cast<uint8_t>(std::clamp(r_val, 0.0, 255.0));
      px[1] = static_cast<uint8_t>(std::clamp(g_val, 0.0, 255.0));
      px[2] = static_cast<uint8_t>(std::clamp(b_val, 0.0, 255.0));
    }
  }
  img.data = std::move(pixels_out);
  return img;
}

std::vector<Image> Clip(int32_t width, int32_t height, int64_t count,
                        uint32_t scene_id) {
  std::vector<Image> frames;
  frames.reserve(count);
  for (int64_t i = 0; i < count; ++i) {
    frames.push_back(Frame(width, height, i, scene_id));
  }
  return frames;
}

Image Still(int32_t width, int32_t height, uint32_t scene_id) {
  return Frame(width, height, 0, scene_id);
}

}  // namespace videogen
}  // namespace tbm
