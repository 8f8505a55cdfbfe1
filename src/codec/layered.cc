#include "codec/layered.h"

#include <algorithm>
#include <cmath>

#include "base/macros.h"
#include "codec/tjpeg.h"

namespace tbm {

namespace {

int32_t HalfUp(int32_t v) { return (v + 1) / 2; }

// 2x box downscale of an RGB image.
Image Downscale2x(const Image& image) {
  const int32_t w = HalfUp(image.width);
  const int32_t h = HalfUp(image.height);
  Image out{w, h, ColorModel::kRgb24, {}};
  Bytes pixels_out(Image::ExpectedBytes(out.width, out.height, out.model));
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      for (int c = 0; c < 3; ++c) {
        int sum = 0, count = 0;
        for (int dy = 0; dy < 2; ++dy) {
          for (int dx = 0; dx < 2; ++dx) {
            int32_t sx = 2 * x + dx, sy = 2 * y + dy;
            if (sx >= image.width || sy >= image.height) continue;
            sum += image.data[3 * (static_cast<size_t>(sy) * image.width +
                                   sx) + c];
            ++count;
          }
        }
        pixels_out[3 * (static_cast<size_t>(y) * w + x) + c] =
            static_cast<uint8_t>(sum / count);
      }
    }
  }
  out.data = std::move(pixels_out);
  return out;
}

// Bilinear upscale to an explicit geometry.
Image UpscaleTo(const Image& image, int32_t width, int32_t height) {
  Image out{width, height, ColorModel::kRgb24, {}};
  Bytes pixels_out(Image::ExpectedBytes(out.width, out.height, out.model));
  for (int32_t oy = 0; oy < height; ++oy) {
    double sy = (oy + 0.5) * image.height / height - 0.5;
    int32_t y0 = std::clamp<int32_t>(static_cast<int32_t>(std::floor(sy)), 0,
                                     image.height - 1);
    int32_t y1 = std::min(y0 + 1, image.height - 1);
    double fy = std::clamp(sy - y0, 0.0, 1.0);
    for (int32_t ox = 0; ox < width; ++ox) {
      double sx = (ox + 0.5) * image.width / width - 0.5;
      int32_t x0 = std::clamp<int32_t>(static_cast<int32_t>(std::floor(sx)),
                                       0, image.width - 1);
      int32_t x1 = std::min(x0 + 1, image.width - 1);
      double fx = std::clamp(sx - x0, 0.0, 1.0);
      for (int c = 0; c < 3; ++c) {
        auto px = [&](int32_t x, int32_t y) {
          return static_cast<double>(
              image.data[3 * (static_cast<size_t>(y) * image.width + x) + c]);
        };
        double v = (1 - fy) * ((1 - fx) * px(x0, y0) + fx * px(x1, y0)) +
                   fy * ((1 - fx) * px(x0, y1) + fx * px(x1, y1));
        pixels_out[3 * (static_cast<size_t>(oy) * width + ox) + c] =
            static_cast<uint8_t>(std::lround(std::clamp(v, 0.0, 255.0)));
      }
    }
  }
  out.data = std::move(pixels_out);
  return out;
}

}  // namespace

Result<LayeredImage> LayeredEncode(const Image& image,
                                   const LayeredConfig& config) {
  TBM_RETURN_IF_ERROR(image.Validate());
  if (image.model != ColorModel::kRgb24) {
    return Status::InvalidArgument("layered coding expects RGB input");
  }
  if (image.width < 2 || image.height < 2) {
    return Status::InvalidArgument("image too small to layer");
  }
  LayeredImage layered;
  layered.full_width = image.width;
  layered.full_height = image.height;

  Image base_image = Downscale2x(image);
  TBM_ASSIGN_OR_RETURN(layered.base,
                       TjpegEncode(base_image, config.base_quality));

  // Residual against the *decoded* base, mirroring the decoder.
  TBM_ASSIGN_OR_RETURN(Image base_decoded, TjpegDecode(layered.base));
  Image prediction = UpscaleTo(base_decoded, image.width, image.height);
  Image residual{image.width, image.height, ColorModel::kRgb24, {}};
  Bytes residual_out(
      Image::ExpectedBytes(residual.width, residual.height, residual.model));
  for (size_t i = 0; i < residual_out.size(); ++i) {
    // Residuals span [-255, 255]; store at half precision around 128.
    int diff = static_cast<int>(image.data[i]) - prediction.data[i];
    residual_out[i] =
        static_cast<uint8_t>(std::clamp(diff / 2 + 128, 0, 255));
  }
  residual.data = std::move(residual_out);
  TBM_ASSIGN_OR_RETURN(layered.enhancement,
                       TjpegEncode(residual, config.enhancement_quality));
  return layered;
}

Result<Image> LayeredDecodeBase(const LayeredImage& layered) {
  TBM_ASSIGN_OR_RETURN(Image base, TjpegDecode(layered.base));
  return UpscaleTo(base, layered.full_width, layered.full_height);
}

Result<Image> LayeredDecodeFull(const LayeredImage& layered) {
  TBM_ASSIGN_OR_RETURN(Image prediction, LayeredDecodeBase(layered));
  TBM_ASSIGN_OR_RETURN(Image residual, TjpegDecode(layered.enhancement));
  if (residual.width != prediction.width ||
      residual.height != prediction.height) {
    return Status::Corruption("enhancement layer geometry mismatch");
  }
  Image out = prediction;
  Bytes pixels_out = prediction.data.MutableCopy();
  for (size_t i = 0; i < pixels_out.size(); ++i) {
    int diff = (static_cast<int>(residual.data[i]) - 128) * 2;
    pixels_out[i] = static_cast<uint8_t>(
        std::clamp(static_cast<int>(prediction.data[i]) + diff, 0, 255));
  }
  out.data = std::move(pixels_out);
  return out;
}

}  // namespace tbm
