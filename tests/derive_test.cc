#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <utility>

#include "codec/color.h"
#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "derive/graph.h"
#include "derive/operators.h"

namespace tbm {
namespace {

const DerivationRegistry& Reg() { return DerivationRegistry::Builtin(); }

VideoValue SmallVideo(int64_t frames, uint32_t scene = 3) {
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(48, 32, frames, scene);
  return video;
}

// ---------------------------------------------------------------------------
// Registry metadata reproduces Table 1

struct Table1Row {
  const char* name;
  MediaKind arg0;
  MediaKind result;
  DerivationCategory category;
  size_t arity;
};

// Print a case by its name: ctest names each case after its printed
// parameter, and the default byte dump would include pointer values that
// change from run to run.
void PrintTo(const Table1Row& row, std::ostream* os) { *os << row.name; }

class Table1Test : public ::testing::TestWithParam<Table1Row> {};

TEST_P(Table1Test, SignatureMatchesPaper) {
  const Table1Row& row = GetParam();
  auto op = Reg().Find(row.name);
  ASSERT_TRUE(op.ok()) << row.name;
  EXPECT_EQ((*op)->arg_kinds.size(), row.arity);
  EXPECT_EQ((*op)->arg_kinds[0], row.arg0);
  EXPECT_EQ((*op)->result_kind, row.result);
  EXPECT_EQ((*op)->category, row.category);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table1Test,
    ::testing::Values(
        Table1Row{"color separation", MediaKind::kImage, MediaKind::kImage,
                  DerivationCategory::kContent, 1},
        Table1Row{"audio normalization", MediaKind::kAudio, MediaKind::kAudio,
                  DerivationCategory::kContent, 1},
        Table1Row{"video edit", MediaKind::kVideo, MediaKind::kVideo,
                  DerivationCategory::kTiming, 1},
        Table1Row{"video transition", MediaKind::kVideo, MediaKind::kVideo,
                  DerivationCategory::kContent, 2},
        Table1Row{"MIDI synthesis", MediaKind::kMusic, MediaKind::kAudio,
                  DerivationCategory::kType, 1}));

TEST(RegistryTest, UnknownOpIsNotFound) {
  EXPECT_TRUE(Reg().Find("teleport").status().IsNotFound());
}

TEST(RegistryTest, ArityAndKindChecked) {
  MediaValue audio = audiogen::Sine(8000, 1, 440, 0.5, 0.1);
  MediaValue video = SmallVideo(2);
  AttrMap params;
  // Wrong arity.
  EXPECT_TRUE(Reg()
                  .Apply("audio mix", {&audio}, params)
                  .status()
                  .IsInvalidArgument());
  // Wrong kind — the paper: "an audio sequence cannot be concatenated
  // to a video sequence."
  EXPECT_TRUE(Reg()
                  .Apply("audio concat", {&audio, &video}, params)
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Parameter key aliases

TEST(ParamAliasTest, UnderscoreAliasesMatchSpacedKeys) {
  MediaValue tone = audiogen::Sine(8000, 1, 440, 0.2, 0.5);

  AttrMap spaced;
  spaced.SetDouble("target peak", 0.8);
  AttrMap underscored;
  underscored.SetDouble("target_peak", 0.8);
  auto a = Reg().Apply("audio normalization", {&tone}, spaced);
  auto b = Reg().Apply("audio normalization", {&tone}, underscored);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(std::get<AudioBuffer>(*a).samples[777],
            std::get<AudioBuffer>(*b).samples[777]);

  // Multi-word int keys alias the same way.
  AttrMap fade_spaced;
  fade_spaced.SetInt("fade in frames", 1000);
  fade_spaced.SetInt("fade out frames", 500);
  AttrMap fade_underscored;
  fade_underscored.SetInt("fade_in_frames", 1000);
  fade_underscored.SetInt("fade_out_frames", 500);
  auto c = Reg().Apply("audio fade", {&tone}, fade_spaced);
  auto d = Reg().Apply("audio fade", {&tone}, fade_underscored);
  ASSERT_TRUE(c.ok()) << c.status();
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(std::get<AudioBuffer>(*c).samples[123],
            std::get<AudioBuffer>(*d).samples[123]);
  // And the alias really took effect (index 123 is inside the fade-in).
  EXPECT_NE(std::get<AudioBuffer>(*c).samples[123],
            std::get<AudioBuffer>(tone).samples[123]);
}

TEST(ParamAliasTest, CanonicalSpacedKeyWinsOverAlias) {
  MediaValue tone = audiogen::Sine(8000, 1, 440, 0.2, 0.5);
  AttrMap both;
  both.SetDouble("target peak", 0.9);
  both.SetDouble("target_peak", 0.1);
  AttrMap canonical;
  canonical.SetDouble("target peak", 0.9);
  auto a = Reg().Apply("audio normalization", {&tone}, both);
  auto b = Reg().Apply("audio normalization", {&tone}, canonical);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(std::get<AudioBuffer>(*a).samples[777],
            std::get<AudioBuffer>(*b).samples[777]);
}

// ---------------------------------------------------------------------------
// Audio operators

TEST(AudioOpsTest, NormalizationHitsTargetPeak) {
  MediaValue quiet = audiogen::Sine(8000, 1, 440, 0.2, 0.2);
  AttrMap params;
  params.SetDouble("target peak", 0.9);
  auto result = Reg().Apply("audio normalization", {&quiet}, params);
  ASSERT_TRUE(result.ok()) << result.status();
  const AudioBuffer& out = std::get<AudioBuffer>(*result);
  EXPECT_NEAR(PeakAmplitude(out), 0.9 * 32767, 200);
}

TEST(AudioOpsTest, NormalizationOfSilenceIsNoOp) {
  MediaValue silence = audiogen::Silence(8000, 1, 0.1);
  auto result = Reg().Apply("audio normalization", {&silence}, AttrMap{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PeakAmplitude(std::get<AudioBuffer>(*result)), 0);
}

TEST(AudioOpsTest, NormalizationSpanParameters) {
  // Paper: "the parameters needed are the start and end points of the
  // audio sequence to be normalized."
  AudioBuffer buffer = audiogen::Sine(8000, 1, 440, 0.2, 1.0);
  MediaValue value = buffer;
  AttrMap params;
  params.SetInt("start frame", 0);
  params.SetInt("end frame", 4000);
  auto result = Reg().Apply("audio normalization", {&value}, params);
  ASSERT_TRUE(result.ok());
  const AudioBuffer& out = std::get<AudioBuffer>(*result);
  // First half amplified, second half untouched. (Index 1001: sample
  // 1000 of a 440 Hz tone at 8 kHz lands exactly on a zero crossing.)
  EXPECT_GT(std::abs(out.samples[1001]), std::abs(buffer.samples[1001]));
  EXPECT_EQ(out.samples[6001], buffer.samples[6001]);
  // Bad span rejected.
  params.SetInt("end frame", 999999);
  EXPECT_TRUE(Reg()
                  .Apply("audio normalization", {&value}, params)
                  .status()
                  .IsOutOfRange());
}

TEST(AudioOpsTest, GainClampsAtFullScale) {
  MediaValue loud = audiogen::Sine(8000, 1, 440, 0.9, 0.1);
  AttrMap params;
  params.SetDouble("gain", 10.0);
  auto result = Reg().Apply("audio gain", {&loud}, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PeakAmplitude(std::get<AudioBuffer>(*result)), 32767);
}

TEST(AudioOpsTest, MixWithOffset) {
  MediaValue a = audiogen::Sine(8000, 1, 440, 0.3, 0.5);
  MediaValue b = audiogen::Sine(8000, 1, 880, 0.3, 0.5);
  AttrMap params;
  params.SetInt("offset frames", 2000);
  auto result = Reg().Apply("audio mix", {&a, &b}, params);
  ASSERT_TRUE(result.ok());
  const AudioBuffer& out = std::get<AudioBuffer>(*result);
  EXPECT_EQ(out.FrameCount(), 2000 + 4000);
  // Mismatched formats rejected.
  MediaValue other_rate = audiogen::Sine(44100, 1, 440, 0.3, 0.1);
  EXPECT_TRUE(Reg()
                  .Apply("audio mix", {&a, &other_rate}, AttrMap{})
                  .status()
                  .IsInvalidArgument());
}

TEST(AudioOpsTest, CutAndConcatInverse) {
  AudioBuffer buffer = audiogen::Noise(8000, 2, 0.4, 0.5, 17);
  MediaValue value = buffer;
  AttrMap head_params;
  head_params.SetInt("start frame", 0);
  head_params.SetInt("frame count", 1500);
  auto head = Reg().Apply("audio cut", {&value}, head_params);
  AttrMap tail_params;
  tail_params.SetInt("start frame", 1500);
  auto tail = Reg().Apply("audio cut", {&value}, tail_params);
  ASSERT_TRUE(head.ok() && tail.ok());
  auto rejoined = Reg().Apply("audio concat", {&*head, &*tail}, AttrMap{});
  ASSERT_TRUE(rejoined.ok());
  EXPECT_EQ(std::get<AudioBuffer>(*rejoined).samples, buffer.samples);
}

TEST(AudioOpsTest, ResampleChangesRateKeepsDuration) {
  MediaValue cd = audiogen::Sine(44100, 1, 440, 0.5, 0.5);
  AttrMap params;
  params.SetInt("target rate", 8000);
  auto result = Reg().Apply("audio resample", {&cd}, params);
  ASSERT_TRUE(result.ok());
  const AudioBuffer& out = std::get<AudioBuffer>(*result);
  EXPECT_EQ(out.sample_rate, 8000);
  EXPECT_NEAR(out.DurationSeconds(), 0.5, 0.01);
}

// A NaN passes a plain range check and std::lround of a non-finite
// product is unspecified, so every double parameter that scales samples
// rejects non-finite values.
TEST(AudioOpsTest, NormalizationRejectsNonFiniteTargetPeak) {
  MediaValue tone = audiogen::Sine(8000, 1, 440, 0.2, 0.1);
  for (double target : {std::nan(""), HUGE_VAL}) {
    AttrMap params;
    params.SetDouble("target peak", target);
    EXPECT_TRUE(Reg()
                    .Apply("audio normalization", {&tone}, params)
                    .status()
                    .IsInvalidArgument())
        << target;
  }
}

TEST(AudioOpsTest, GainRejectsNonFiniteGain) {
  MediaValue tone = audiogen::Sine(8000, 1, 440, 0.2, 0.1);
  for (double gain : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    AttrMap params;
    params.SetDouble("gain", gain);
    EXPECT_TRUE(
        Reg().Apply("audio gain", {&tone}, params).status().IsInvalidArgument())
        << gain;
  }
}

TEST(AudioOpsTest, MixRejectsNonFiniteGains) {
  MediaValue a = audiogen::Sine(8000, 1, 440, 0.3, 0.1);
  MediaValue b = audiogen::Sine(8000, 1, 880, 0.3, 0.1);
  for (const char* key : {"gain a", "gain b"}) {
    for (double gain : {std::nan(""), HUGE_VAL}) {
      AttrMap params;
      params.SetDouble(key, gain);
      EXPECT_TRUE(Reg()
                      .Apply("audio mix", {&a, &b}, params)
                      .status()
                      .IsInvalidArgument())
          << key << " " << gain;
    }
  }
}

TEST(AudioOpsTest, MidiSynthesisRejectsNonFiniteGainAndTempo) {
  MidiSequence seq(480, 120.0);
  ASSERT_TRUE(seq.AddNote(0, 960, 60).ok());
  MediaValue music = seq;
  for (const char* key : {"gain", "tempo bpm"}) {
    for (double value : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
      AttrMap params;
      params.SetInt("sample rate", 8000);
      params.SetInt("channels", 1);
      params.SetDouble(key, value);
      EXPECT_TRUE(Reg()
                      .Apply("MIDI synthesis", {&music}, params)
                      .status()
                      .IsInvalidArgument())
          << key << " " << value;
    }
  }
}

// ---------------------------------------------------------------------------
// Image operators

TEST(ImageOpsTest, ColorSeparationProducesCmyk) {
  MediaValue image = videogen::Still(32, 32, 5);
  AttrMap params;
  params.SetDouble("black generation", 0.8);
  auto result = Reg().Apply("color separation", {&image}, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<Image>(*result).model, ColorModel::kCmyk32);
}

TEST(ImageOpsTest, ColorSeparationRejectsNonFiniteParams) {
  MediaValue image = videogen::Still(8, 8, 5);
  for (const char* key : {"black generation", "under color removal"}) {
    for (double value : {std::nan(""), HUGE_VAL, -0.5}) {
      AttrMap params;
      params.SetDouble(key, value);
      auto result = Reg().Apply("color separation", {&image}, params);
      ASSERT_TRUE(result.status().IsInvalidArgument()) << key << " " << value;
      EXPECT_NE(result.status().ToString().find("must be in [0,1]"),
                std::string::npos)
          << result.status();
    }
  }
}

// The element kernel is the only definition of these ops, so its factory
// reports the errors users see; a null `run` means only "not
// element-wise" (box blur).
TEST(ImageOpsTest, KernelFactoriesReportTheOpsErrors) {
  auto separation = *Reg().Find("color separation");
  auto filter = *Reg().Find("image filter");
  ElementShape gray{MediaKind::kImage, 8, 8, ColorModel::kGray8};
  ElementShape rgb{MediaKind::kImage, 8, 8, ColorModel::kRgb24};
  auto not_rgb = separation->element_fn(gray, AttrMap{});
  ASSERT_TRUE(not_rgb.status().IsInvalidArgument());
  EXPECT_NE(not_rgb.status().ToString().find("expects an RGB image"),
            std::string::npos);
  AttrMap sharpen;
  sharpen.SetString("kind", "sharpen");
  auto unknown = filter->element_fn(rgb, sharpen);
  ASSERT_TRUE(unknown.status().IsInvalidArgument());
  EXPECT_NE(
      unknown.status().ToString().find("unknown image filter \"sharpen\""),
      std::string::npos);
  AttrMap blur;
  blur.SetString("kind", "box blur");
  auto gather = filter->element_fn(rgb, blur);
  ASSERT_TRUE(gather.ok());
  EXPECT_EQ(gather->run, nullptr);
  // Whole-value and kernel forms agree on a planar model (byte elements).
  MediaValue yuv = Image{8, 8, ColorModel::kYuv420,
                         Bytes(Image::ExpectedBytes(8, 8, ColorModel::kYuv420),
                               7)};
  auto inverted = Reg().Apply("image filter", {&yuv}, AttrMap{});
  ASSERT_TRUE(inverted.ok()) << inverted.status();
  const Image& out = std::get<Image>(*inverted);
  EXPECT_EQ(out.model, ColorModel::kYuv420);
  EXPECT_EQ(out.data.MutableCopy(),
            Bytes(Image::ExpectedBytes(8, 8, ColorModel::kYuv420), 248));
}

TEST(ImageOpsTest, FiltersWork) {
  MediaValue image = videogen::Still(32, 32, 6);
  AttrMap invert;
  invert.SetString("kind", "invert");
  auto inverted = Reg().Apply("image filter", {&image}, invert);
  ASSERT_TRUE(inverted.ok());
  const Image& original = std::get<Image>(image);
  const Image& out = std::get<Image>(*inverted);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out.data[i], 255 - original.data[i]);
  }
  AttrMap blur;
  blur.SetString("kind", "box blur");
  blur.SetInt("radius", 2);
  EXPECT_TRUE(Reg().Apply("image filter", {&image}, blur).ok());
  AttrMap unknown;
  unknown.SetString("kind", "sharpen");
  EXPECT_TRUE(Reg()
                  .Apply("image filter", {&image}, unknown)
                  .status()
                  .IsInvalidArgument());
}

TEST(ImageOpsTest, ReencodeIsLossyButClose) {
  MediaValue image = videogen::Still(64, 64, 7);
  AttrMap params;
  params.SetInt("quality", 80);
  auto result = Reg().Apply("image reencode", {&image}, params);
  ASSERT_TRUE(result.ok());
  double psnr = *Psnr(std::get<Image>(image), std::get<Image>(*result));
  EXPECT_GT(psnr, 28.0);
  EXPECT_LT(psnr, 99.0);  // Actually lossy.
}

// ---------------------------------------------------------------------------
// Video operators

TEST(VideoOpsTest, EditSelectsSpan) {
  MediaValue video = SmallVideo(20);
  AttrMap params;
  params.SetInt("start frame", 5);
  params.SetInt("frame count", 10);
  auto result = Reg().Apply("video edit", {&video}, params);
  ASSERT_TRUE(result.ok());
  const VideoValue& out = std::get<VideoValue>(*result);
  EXPECT_EQ(out.frames.size(), 10u);
  EXPECT_EQ(out.frames[0].data, std::get<VideoValue>(video).frames[5].data);
  params.SetInt("frame count", 100);
  EXPECT_TRUE(
      Reg().Apply("video edit", {&video}, params).status().IsOutOfRange());
}

TEST(VideoOpsTest, ConcatRequiresMatchingRates) {
  MediaValue a = SmallVideo(5);
  VideoValue b_value = SmallVideo(5, 4);
  b_value.frame_rate = Rational(30);
  MediaValue b = b_value;
  EXPECT_TRUE(Reg()
                  .Apply("video concat", {&a, &b}, AttrMap{})
                  .status()
                  .IsInvalidArgument());
  MediaValue c = SmallVideo(5, 4);
  auto result = Reg().Apply("video concat", {&a, &c}, AttrMap{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<VideoValue>(*result).frames.size(), 10u);
}

TEST(VideoOpsTest, FadeBlendsMonotonically) {
  MediaValue a = SmallVideo(12, 10);
  MediaValue b = SmallVideo(12, 20);
  AttrMap params;
  params.SetString("kind", "fade");
  params.SetInt("duration frames", 6);
  auto result = Reg().Apply("video transition", {&a, &b}, params);
  ASSERT_TRUE(result.ok());
  const VideoValue& out = std::get<VideoValue>(*result);
  // Length: (12-6) + 6 + (12-6) = 18.
  EXPECT_EQ(out.frames.size(), 18u);
  const VideoValue& va = std::get<VideoValue>(a);
  const VideoValue& vb = std::get<VideoValue>(b);
  // Pre-transition frames untouched.
  EXPECT_EQ(out.frames[0].data, va.frames[0].data);
  // Post-transition frames come from B.
  EXPECT_EQ(out.frames[17].data, vb.frames[11].data);
  // Transition frames move from A-like to B-like.
  auto diff = [](const Image& x, const Image& y) {
    double total = 0;
    for (size_t i = 0; i < x.data.size(); ++i) {
      total += std::abs(static_cast<int>(x.data[i]) - y.data[i]);
    }
    return total;
  };
  double early_vs_a = diff(out.frames[6], va.frames[6]);
  double late_vs_a = diff(out.frames[11], va.frames[11]);
  EXPECT_LT(early_vs_a, late_vs_a);
}

uint64_t Fnv1a(const VideoValue& video) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const Image& frame : video.frames) {
    for (size_t i = 0; i < frame.data.size(); ++i) {
      hash = (hash ^ frame.data[i]) * 0x100000001b3ull;
    }
  }
  return hash;
}

// Every fade byte is std::lround((1 - t)·a + t·b), t = k / (d + 1). The
// hashes were recorded from a fade that called std::lround per byte.
TEST(VideoOpsTest, FadeIsByteExact) {
  constexpr std::pair<int64_t, uint64_t> kClipHashes[] = {
      {1, 0x751978c13897aca9ull},  // t = 1/2: every odd a + b is a tie.
      {3, 0xaf016b5bbdc2c5dfull},
      {4, 0x7868ac6eda20ada2ull},
      {9, 0x69c636aea364b727ull}};
  for (const auto& [duration, want] : kClipHashes) {
    MediaValue a = SmallVideo(duration + 2, 10);
    MediaValue b = SmallVideo(duration + 2, 20);
    AttrMap params;
    params.SetString("kind", "fade");
    params.SetInt("duration frames", duration);
    auto result = Reg().Apply("video transition", {&a, &b}, params);
    ASSERT_TRUE(result.ok());
    const uint64_t got = Fnv1a(std::get<VideoValue>(*result));
    EXPECT_EQ(got, want) << duration << " frames: 0x" << std::hex << got;
  }

  // Frames whose bytes hold every (a, b) pair once.
  Image pairs_a{256, 256, ColorModel::kGray8, {}};
  Image pairs_b = pairs_a;
  Bytes bytes_a(size_t{1} << 16), bytes_b(size_t{1} << 16);
  for (size_t p = 0; p < bytes_a.size(); ++p) {
    bytes_a[p] = static_cast<uint8_t>(p);
    bytes_b[p] = static_cast<uint8_t>(p >> 8);
  }
  pairs_a.data = std::move(bytes_a);
  pairs_b.data = std::move(bytes_b);
  for (int64_t duration = 1; duration <= 16; ++duration) {
    VideoValue va, vb;
    va.frame_rate = vb.frame_rate = Rational(25);
    va.frames.assign(duration, pairs_a);
    vb.frames.assign(duration, pairs_b);
    MediaValue a = va, b = vb;
    AttrMap params;
    params.SetString("kind", "fade");
    params.SetInt("duration frames", duration);
    auto result = Reg().Apply("video transition", {&a, &b}, params);
    ASSERT_TRUE(result.ok());
    const VideoValue& out = std::get<VideoValue>(*result);
    ASSERT_EQ(out.frames.size(), static_cast<size_t>(duration));
    for (int64_t k = 1; k <= duration; ++k) {
      const double t = static_cast<double>(k) / (duration + 1);
      const Image& frame = out.frames[k - 1];
      size_t mismatches = 0;
      for (size_t p = 0; p < frame.data.size(); ++p) {
        const int pa = pairs_a.data[p], pb = pairs_b.data[p];
        const auto want =
            static_cast<uint8_t>(std::lround((1.0 - t) * pa + t * pb));
        if (frame.data[p] != want && mismatches++ == 0) {
          ADD_FAILURE() << "t=" << k << "/" << duration + 1 << " a=" << pa
                        << " b=" << pb;
        }
      }
      EXPECT_EQ(mismatches, 0u) << "t=" << k << "/" << duration + 1;
    }
  }
}

TEST(VideoOpsTest, WipeRevealsLeftToRight) {
  MediaValue a = SmallVideo(8, 10);
  MediaValue b = SmallVideo(8, 20);
  AttrMap params;
  params.SetString("kind", "wipe");
  params.SetInt("duration frames", 4);
  auto result = Reg().Apply("video transition", {&a, &b}, params);
  ASSERT_TRUE(result.ok());
  const VideoValue& out = std::get<VideoValue>(*result);
  const VideoValue& va = std::get<VideoValue>(a);
  const VideoValue& vb = std::get<VideoValue>(b);
  // In an early wipe frame the right edge is still A, the left edge is
  // already B.
  const Image& mid = out.frames[4 + 2];  // Third transition frame.
  const Image& src_a = va.frames[4 + 2];
  const Image& src_b = vb.frames[2];
  int w = mid.width;
  int y = mid.height / 2;
  EXPECT_EQ(mid.data[3 * (y * w + 1)], src_b.data[3 * (y * w + 1)]);
  EXPECT_EQ(mid.data[3 * (y * w + w - 2)], src_a.data[3 * (y * w + w - 2)]);
}

TEST(VideoOpsTest, TransitionParameterValidation) {
  MediaValue a = SmallVideo(4);
  MediaValue b = SmallVideo(4, 9);
  AttrMap params;
  params.SetInt("duration frames", 10);  // Longer than inputs.
  EXPECT_TRUE(Reg()
                  .Apply("video transition", {&a, &b}, params)
                  .status()
                  .IsOutOfRange());
  params.SetInt("duration frames", 2);
  params.SetString("kind", "dissolve");
  EXPECT_TRUE(Reg()
                  .Apply("video transition", {&a, &b}, params)
                  .status()
                  .IsInvalidArgument());
}

// Fade and wipe index A's and B's frames at the same offsets, so every
// frame pair of the span must agree; a mismatch is refused before any
// byte is read.
TEST(VideoOpsTest, TransitionFramesMustMatch) {
  auto clip = [](int frames, int32_t width, ColorModel model, uint8_t fill) {
    VideoValue video;
    video.frame_rate = Rational(25);
    for (int f = 0; f < frames; ++f) {
      Image frame{width, 16, model, {}};
      frame.data =
          Bytes(Image::ExpectedBytes(frame.width, frame.height, model), fill);
      video.frames.push_back(std::move(frame));
    }
    return video;
  };
  auto apply = [](const VideoValue& va, const VideoValue& vb,
                  const std::string& kind) {
    MediaValue a = va, b = vb;
    AttrMap params;
    params.SetString("kind", kind);
    params.SetInt("duration frames", 2);
    return Reg().Apply("video transition", {&a, &b}, params);
  };
  const VideoValue rgb = clip(3, 16, ColorModel::kRgb24, 10);
  const VideoValue gray = clip(3, 16, ColorModel::kGray8, 200);
  VideoValue later_wider = clip(3, 16, ColorModel::kRgb24, 20);
  later_wider.frames[1] = clip(1, 32, ColorModel::kRgb24, 20).frames[0];
  for (const std::string kind : {"fade", "wipe"}) {
    // A Gray8 B under an RGB A of the same size.
    EXPECT_TRUE(apply(rgb, gray, kind).status().IsInvalidArgument()) << kind;
    // The front frames agree; the second frame of B is wider.
    EXPECT_TRUE(apply(rgb, later_wider, kind).status().IsInvalidArgument())
        << kind;
  }
  // A wipe moves whole pixels of whatever interleaved model it is given.
  auto wiped = apply(clip(3, 16, ColorModel::kGray8, 10), gray, "wipe");
  ASSERT_TRUE(wiped.ok());
  const Image& first = std::get<VideoValue>(*wiped).frames[1];
  ASSERT_EQ(first.model, ColorModel::kGray8);
  // t = 1/3: the first 5 of 16 columns come from B, the rest from A.
  EXPECT_EQ(first.data[4], 200);
  EXPECT_EQ(first.data[5], 10);
  const VideoValue planar = clip(3, 16, ColorModel::kYuv420, 10);
  EXPECT_TRUE(apply(planar, planar, "wipe").status().IsInvalidArgument());
  EXPECT_TRUE(apply(planar, planar, "fade").ok());
}

TEST(VideoOpsTest, ChromaKeyReplacesKeyColor) {
  // Foreground: green screen with a red box; background: synthetic.
  VideoValue fg;
  fg.frame_rate = Rational(25);
  for (int f = 0; f < 3; ++f) {
    Image frame = Image::Zero(32, 32, ColorModel::kRgb24);
    Bytes pixels(frame.data.size(), 0);
    for (size_t i = 0; i < pixels.size(); i += 3) {
      pixels[i] = 0;
      pixels[i + 1] = 255;
      pixels[i + 2] = 0;
    }
    for (int y = 10; y < 20; ++y) {
      for (int x = 10; x < 20; ++x) {
        size_t p = 3 * (static_cast<size_t>(y) * 32 + x);
        pixels[p] = 200;
        pixels[p + 1] = 0;
        pixels[p + 2] = 0;
      }
    }
    frame.data = std::move(pixels);
    fg.frames.push_back(std::move(frame));
  }
  MediaValue fg_value = fg;
  MediaValue bg_value = SmallVideo(3, 30);
  // Geometry must match: regenerate bg at 32x32.
  VideoValue bg;
  bg.frame_rate = Rational(25);
  bg.frames = videogen::Clip(32, 32, 3, 30);
  bg_value = bg;
  auto result = Reg().Apply("chroma key", {&fg_value, &bg_value}, AttrMap{});
  ASSERT_TRUE(result.ok()) << result.status();
  const VideoValue& out = std::get<VideoValue>(*result);
  // Green pixels replaced by background; red box kept.
  size_t corner = 0;
  EXPECT_EQ(out.frames[0].data[corner], bg.frames[0].data[corner]);
  size_t box = 3 * (15 * 32 + 15);
  EXPECT_EQ(out.frames[0].data[box], 200);
}

// Keys a synthetic clip over another at several keys and tolerances;
// the hash was recorded from the int64_t keying loop that read every
// byte through BufferSlice::operator[].
TEST(VideoOpsTest, ChromaKeyIsByteExact) {
  VideoValue fg, bg;
  fg.frame_rate = bg.frame_rate = Rational(25);
  fg.frames = videogen::Clip(61, 37, 3, 41);
  bg.frames = videogen::Clip(61, 37, 3, 42);
  const MediaValue fg_value = fg, bg_value = bg;
  auto key = [&](int64_t r, int64_t g, int64_t b, int64_t tolerance) {
    AttrMap params;
    params.SetInt("key r", r);
    params.SetInt("key g", g);
    params.SetInt("key b", b);
    params.SetInt("tolerance", tolerance);
    auto result = Reg().Apply("chroma key", {&fg_value, &bg_value}, params);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? std::get<VideoValue>(*result) : VideoValue{};
  };
  // Keys taken from the clip's own pixels, so each tolerance keys some
  // pixels and keeps others.
  const Image& first = fg.frames[0];
  VideoValue all;
  for (size_t pixel : {0u, 700u, 1500u, 2200u}) {
    const int64_t r = first.data[3 * pixel], g = first.data[3 * pixel + 1],
                  b = first.data[3 * pixel + 2];
    for (int64_t tolerance : {0, 1, 17, 60, 96, -60, 300, 441, 442, 443,
                              100000}) {
      VideoValue keyed = key(r, g, b, tolerance);
      all.frames.insert(all.frames.end(), keyed.frames.begin(),
                        keyed.frames.end());
    }
  }
  for (int64_t g : {0, 255}) {
    VideoValue keyed = key(255 - g, g, 128, 96);
    all.frames.insert(all.frames.end(), keyed.frames.begin(),
                      keyed.frames.end());
  }
  const uint64_t got = Fnv1a(all);
  EXPECT_EQ(got, 0x2aafd95afd6f57f2ull) << "0x" << std::hex << got;

  // A tolerance of either sign whose square overflows int64_t keys
  // every pixel: no pixel is farther than 442 from any key.
  for (int64_t tolerance : {INT64_MAX, INT64_MIN, int64_t{3037000500}}) {
    const VideoValue keyed = key(0, 255, 0, tolerance);
    ASSERT_EQ(keyed.frames.size(), bg.frames.size());
    for (size_t i = 0; i < bg.frames.size(); ++i) {
      EXPECT_EQ(keyed.frames[i].data, bg.frames[i].data) << tolerance;
    }
  }
  // A key channel outside a byte's range names no color.
  for (int64_t channel : {int64_t{-1}, int64_t{256}, INT64_MIN, INT64_MAX}) {
    AttrMap params;
    params.SetInt("key g", channel);
    EXPECT_TRUE(Reg()
                    .Apply("chroma key", {&fg_value, &bg_value}, params)
                    .status()
                    .IsInvalidArgument())
        << channel;
  }
}

// The keying loop reads both frames as RGB triplets at the same offsets,
// so frames of another model or byte count are rejected up front.
TEST(VideoOpsTest, ChromaKeyRequiresWellFormedRgbFrames) {
  auto clip = [](ColorModel model) {
    VideoValue video;
    video.frame_rate = Rational(25);
    video.frames.push_back(Image{
        16, 16, model, Bytes(Image::ExpectedBytes(16, 16, model), 0)});
    return MediaValue(std::move(video));
  };
  MediaValue rgb = clip(ColorModel::kRgb24);
  MediaValue gray = clip(ColorModel::kGray8);
  EXPECT_TRUE(Reg().Apply("chroma key", {&rgb, &rgb}, AttrMap{}).ok());
  EXPECT_TRUE(Reg()
                  .Apply("chroma key", {&rgb, &gray}, AttrMap{})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Reg()
                  .Apply("chroma key", {&gray, &rgb}, AttrMap{})
                  .status()
                  .IsInvalidArgument());
  VideoValue short_bg = std::get<VideoValue>(rgb);
  short_bg.frames[0].data = Bytes(10, 0);
  MediaValue truncated = short_bg;
  EXPECT_TRUE(Reg()
                  .Apply("chroma key", {&rgb, &truncated}, AttrMap{})
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Type-changing and generic timing operators

TEST(TypeOpsTest, MidiSynthesisChangesKind) {
  MidiSequence seq(480, 120.0);
  ASSERT_TRUE(seq.AddNote(0, 960, 60).ok());
  MediaValue music = seq;
  EXPECT_EQ(KindOfValue(music), MediaKind::kMusic);
  AttrMap params;
  params.SetInt("sample rate", 8000);
  params.SetInt("channels", 1);
  auto result = Reg().Apply("MIDI synthesis", {&music}, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(KindOfValue(*result), MediaKind::kAudio);
}

TEST(TypeOpsTest, AnimationRenderChangesKind) {
  AnimationScene scene(64, 48, Rational(25));
  SceneObject ball;
  ball.id = 1;
  ball.x = 10;
  ball.y = 10;
  ASSERT_TRUE(scene.AddObject(ball).ok());
  ASSERT_TRUE(scene.AddMovement({0, 20, 1, 50, 40}).ok());
  MediaValue value = scene;
  auto result = Reg().Apply("animation render", {&value}, AttrMap{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(KindOfValue(*result), MediaKind::kVideo);
  EXPECT_EQ(std::get<VideoValue>(*result).frames.size(), 21u);
}

TEST(TimingOpsTest, TranslateShiftsAnyStream) {
  // Works on a music-kind timed stream, showing genericity.
  MidiSequence seq(480, 120.0);
  ASSERT_TRUE(seq.AddNote(0, 480, 60).ok());
  auto stream = seq.ToEventStream();
  ASSERT_TRUE(stream.ok());
  MediaValue value = *stream;
  AttrMap params;
  params.SetInt("offset", 100);
  auto result = Reg().Apply("temporal translate", {&value}, params);
  ASSERT_TRUE(result.ok());
  const TimedStream& out = std::get<TimedStream>(*result);
  EXPECT_EQ(out.at(0).start, 100);
  EXPECT_EQ(out.descriptor().kind, MediaKind::kMusic);
  // Negative overshoot rejected.
  params.SetInt("offset", -1000);
  EXPECT_TRUE(Reg()
                  .Apply("temporal translate", {&value}, params)
                  .status()
                  .IsOutOfRange());
  // Non-stream value rejected by the generic check.
  MediaValue audio = audiogen::Sine(8000, 1, 440, 0.5, 0.1);
  EXPECT_TRUE(Reg()
                  .Apply("temporal translate", {&audio}, params)
                  .status()
                  .IsInvalidArgument());
}

TEST(TimingOpsTest, ScaleStretchesTimes) {
  MidiSequence seq(480, 120.0);
  ASSERT_TRUE(seq.AddNote(100, 400, 60).ok());
  auto stream = seq.ToNoteStream();
  ASSERT_TRUE(stream.ok());
  MediaValue value = *stream;
  AttrMap params;
  params.SetInt("scale num", 2);
  params.SetInt("scale den", 1);
  auto result = Reg().Apply("temporal scale", {&value}, params);
  ASSERT_TRUE(result.ok());
  const TimedStream& out = std::get<TimedStream>(*result);
  EXPECT_EQ(out.at(0).start, 200);
  EXPECT_EQ(out.at(0).duration, 800);
}

// ---------------------------------------------------------------------------
// Derivation graph

TEST(GraphTest, EvaluatesAndCaches) {
  DerivationGraph graph;
  NodeId leaf = graph.AddLeaf(audiogen::Sine(8000, 1, 440, 0.2, 0.2), "tone");
  AttrMap params;
  params.SetDouble("target peak", 0.9);
  auto derived = graph.AddDerived("audio normalization", {leaf}, params,
                                  "normalized");
  ASSERT_TRUE(derived.ok());
  auto value = graph.Evaluate(*derived);
  ASSERT_TRUE(value.ok());
  const MediaValue* first_pointer = value->get();
  // Second evaluation returns the cached value.
  auto again = graph.Evaluate(*derived);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), first_pointer);
  graph.DropCache();
  auto fresh = graph.Evaluate(*derived);
  ASSERT_TRUE(fresh.ok());
  // The dropped value stays alive (and intact) through the earlier ref.
  EXPECT_NE(fresh->get(), first_pointer);
  EXPECT_EQ(KindOfValue(**value), MediaKind::kAudio);
}

TEST(GraphTest, ChainsAndDagSharing) {
  DerivationGraph graph;
  NodeId video = graph.AddLeaf(SmallVideo(10), "clip");
  AttrMap cut1;
  cut1.SetInt("start frame", 0);
  cut1.SetInt("frame count", 4);
  AttrMap cut2;
  cut2.SetInt("start frame", 6);
  cut2.SetInt("frame count", 4);
  auto a = graph.AddDerived("video edit", {video}, cut1, "cut1");
  auto b = graph.AddDerived("video edit", {video}, cut2, "cut2");
  ASSERT_TRUE(a.ok() && b.ok());
  auto joined = graph.AddDerived("video concat", {*a, *b}, AttrMap{}, "joined");
  ASSERT_TRUE(joined.ok());
  auto value = graph.Evaluate(*joined);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(std::get<VideoValue>(**value).frames.size(), 8u);
}

TEST(GraphTest, BadReferencesAndOps) {
  DerivationGraph graph;
  NodeId leaf = graph.AddLeaf(SmallVideo(2));
  EXPECT_TRUE(graph.AddDerived("no such op", {leaf}, AttrMap{})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(graph.AddDerived("video edit", {99}, AttrMap{})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(graph.AddDerived("video concat", {leaf}, AttrMap{})
                  .status()
                  .IsInvalidArgument());  // Arity.
  EXPECT_TRUE(graph.Evaluate(42).status().IsNotFound());
}

TEST(GraphTest, EvaluationErrorsPropagate) {
  DerivationGraph graph;
  NodeId leaf = graph.AddLeaf(SmallVideo(3));
  AttrMap params;
  params.SetInt("start frame", 0);
  params.SetInt("frame count", 99);  // Out of range at evaluation time.
  auto derived = graph.AddDerived("video edit", {leaf}, params);
  ASSERT_TRUE(derived.ok());
  EXPECT_TRUE(graph.Evaluate(*derived).status().IsOutOfRange());
}

TEST(GraphTest, DerivationRecordIsTiny) {
  // The storage-saving claim: the record describing an edit is orders
  // of magnitude smaller than the expanded video.
  DerivationGraph graph;
  NodeId video = graph.AddLeaf(SmallVideo(30), "clip");
  AttrMap params;
  params.SetInt("start frame", 3);
  params.SetInt("frame count", 20);
  auto cut = graph.AddDerived("video edit", {video}, params, "cut");
  ASSERT_TRUE(cut.ok());
  auto record = graph.DerivationRecordBytes(*cut);
  ASSERT_TRUE(record.ok());
  auto value = graph.Evaluate(*cut);
  ASSERT_TRUE(value.ok());
  uint64_t expanded = ExpandedBytes(**value);
  EXPECT_LT(*record * 1000, expanded);
  EXPECT_LT(*record, 200u);
}

TEST(GraphTest, FeasibilityMeasuresExpansion) {
  DerivationGraph graph;
  NodeId audio =
      graph.AddLeaf(audiogen::Sine(44100, 2, 440, 0.4, 2.0), "tone");
  AttrMap params;
  params.SetDouble("gain", 0.5);
  auto derived = graph.AddDerived("audio gain", {audio}, params);
  ASSERT_TRUE(derived.ok());
  auto feasibility = graph.MeasureFeasibility(*derived);
  ASSERT_TRUE(feasibility.ok());
  EXPECT_GT(feasibility->presentation_seconds, 1.9);
  EXPECT_GT(feasibility->expansion_seconds, 0.0);
  // A simple gain over 2 s of audio is comfortably real-time on any
  // machine this test runs on.
  EXPECT_TRUE(feasibility->real_time);
}

TEST(ValueTest, KindAndSizeHelpers) {
  MediaValue audio = audiogen::Sine(8000, 2, 440, 0.5, 1.0);
  EXPECT_EQ(KindOfValue(audio), MediaKind::kAudio);
  EXPECT_EQ(ExpandedBytes(audio), 8000u * 2 * 2);
  EXPECT_NEAR(PresentationSeconds(audio), 1.0, 1e-9);
  MediaValue image = videogen::Still(10, 10, 1);
  EXPECT_EQ(KindOfValue(image), MediaKind::kImage);
  EXPECT_EQ(PresentationSeconds(image), 0.0);
  MediaValue video = SmallVideo(25);
  EXPECT_NEAR(PresentationSeconds(video), 1.0, 1e-9);
}

}  // namespace
}  // namespace tbm
