#include <gtest/gtest.h>

#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "compose/multimedia.h"
#include "compose/timeline.h"

namespace tbm {
namespace {

// ---------------------------------------------------------------------------
// Allen interval relations

struct RelationCase {
  TimeInterval a;
  TimeInterval b;
  IntervalRelation expected;
};

// Print a case by its relation: ctest names each case after its printed
// parameter, and the default byte dump includes padding bytes that
// change from build to build.
void PrintTo(const RelationCase& c, std::ostream* os) {
  *os << IntervalRelationToString(c.expected);
}

class RelationTest : public ::testing::TestWithParam<RelationCase> {};

TEST_P(RelationTest, Classifies) {
  const RelationCase& c = GetParam();
  Result<IntervalRelation> relation = Classify(c.a, c.b);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  EXPECT_EQ(*relation, c.expected) << IntervalRelationToString(*relation);
}

INSTANTIATE_TEST_SUITE_P(
    AllThirteen, RelationTest,
    ::testing::Values(
        RelationCase{{0, 2}, {3, 5}, IntervalRelation::kBefore},
        RelationCase{{3, 5}, {0, 2}, IntervalRelation::kAfter},
        RelationCase{{0, 3}, {3, 5}, IntervalRelation::kMeets},
        RelationCase{{3, 5}, {0, 3}, IntervalRelation::kMetBy},
        RelationCase{{0, 4}, {2, 6}, IntervalRelation::kOverlaps},
        RelationCase{{2, 6}, {0, 4}, IntervalRelation::kOverlappedBy},
        RelationCase{{0, 2}, {0, 5}, IntervalRelation::kStarts},
        RelationCase{{0, 5}, {0, 2}, IntervalRelation::kStartedBy},
        RelationCase{{1, 3}, {0, 5}, IntervalRelation::kDuring},
        RelationCase{{0, 5}, {1, 3}, IntervalRelation::kContains},
        RelationCase{{3, 5}, {0, 5}, IntervalRelation::kFinishes},
        RelationCase{{0, 5}, {3, 5}, IntervalRelation::kFinishedBy},
        RelationCase{{1, 4}, {1, 4}, IntervalRelation::kEquals}));

TEST(RelationTest, ExactRationalBoundaries) {
  // 1/3 + 1/6 = 1/2 exactly: "meets", not "overlaps".
  TimeInterval a{Rational(0), Rational(1, 3) + Rational(1, 6)};
  TimeInterval b{Rational(1, 2), Rational(1)};
  Result<IntervalRelation> relation = Classify(a, b);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  EXPECT_EQ(*relation, IntervalRelation::kMeets);
}

TEST(RelationTest, RejectsEmptyAndInvalidIntervals) {
  TimeInterval proper{Rational(0), Rational(2)};
  TimeInterval empty{Rational(1), Rational(1)};
  TimeInterval backwards{Rational(3), Rational(1)};
  EXPECT_EQ(Classify(empty, proper).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Classify(proper, empty).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Classify(backwards, proper).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// MultimediaObject

VideoValue TestVideo(int64_t frames, uint32_t scene = 3) {
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(48, 32, frames, scene);
  return video;
}

TEST(MultimediaTest, AddComponentValidation) {
  DerivationGraph graph;
  NodeId audio = graph.AddLeaf(audiogen::Sine(8000, 1, 440, 0.5, 1.0), "a");
  MultimediaObject mm("m", &graph);
  EXPECT_TRUE(mm.AddComponent("c1", audio, Rational(0)).ok());
  EXPECT_TRUE(mm.AddComponent("c1", audio, Rational(1)).IsAlreadyExists());
  EXPECT_TRUE(mm.AddComponent("c2", audio, Rational(-1)).IsInvalidArgument());
  EXPECT_TRUE(mm.AddComponent("c3", 99, Rational(0)).IsNotFound());
}

TEST(MultimediaTest, TimelineAndDuration) {
  DerivationGraph graph;
  NodeId music = graph.AddLeaf(audiogen::Sine(8000, 1, 440, 0.5, 10.0),
                               "music");
  NodeId narration =
      graph.AddLeaf(audiogen::Narration(8000, 1, 5.0, 3), "narration");
  NodeId video = graph.AddLeaf(TestVideo(100), "video");  // 4 seconds.

  MultimediaObject mm("m", &graph);
  ASSERT_TRUE(mm.AddComponent("c1", music, Rational(0)).ok());
  ASSERT_TRUE(mm.AddComponent("c2", narration, Rational(2)).ok());
  ASSERT_TRUE(mm.AddComponent("c3", video, Rational(1)).ok());

  auto timeline = mm.Timeline();
  ASSERT_TRUE(timeline.ok());
  ASSERT_EQ(timeline->size(), 3u);
  EXPECT_EQ((*timeline)[0].interval.start, Rational(0));
  EXPECT_EQ((*timeline)[0].interval.end, Rational(10));
  EXPECT_EQ((*timeline)[1].interval.start, Rational(2));
  EXPECT_EQ((*timeline)[2].kind, MediaKind::kVideo);
  EXPECT_EQ(*mm.Duration(), Rational(10));
}

TEST(MultimediaTest, RelationBetweenComponents) {
  DerivationGraph graph;
  NodeId a = graph.AddLeaf(audiogen::Sine(8000, 1, 440, 0.5, 4.0), "a");
  NodeId b = graph.AddLeaf(audiogen::Sine(8000, 1, 880, 0.5, 2.0), "b");
  MultimediaObject mm("m", &graph);
  ASSERT_TRUE(mm.AddComponent("c1", a, Rational(0)).ok());
  ASSERT_TRUE(mm.AddComponent("c2", b, Rational(1)).ok());
  auto relation = mm.RelationBetween("c2", "c1");
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ(*relation, IntervalRelation::kDuring);
  EXPECT_TRUE(mm.RelationBetween("c1", "zz").status().IsNotFound());
}

TEST(MultimediaTest, AsciiTimelineShowsRows) {
  DerivationGraph graph;
  NodeId a = graph.AddLeaf(audiogen::Sine(8000, 1, 440, 0.5, 2.0), "audio1");
  NodeId v = graph.AddLeaf(TestVideo(50), "video3");
  MultimediaObject mm("m", &graph);
  ASSERT_TRUE(mm.AddComponent("c1", a, Rational(0)).ok());
  ASSERT_TRUE(mm.AddComponent("c2", v, Rational(1)).ok());
  auto ascii = mm.RenderTimelineAscii(32);
  ASSERT_TRUE(ascii.ok());
  EXPECT_NE(ascii->find("audio1"), std::string::npos);
  EXPECT_NE(ascii->find("video3"), std::string::npos);
  EXPECT_NE(ascii->find('#'), std::string::npos);
}

TEST(MultimediaTest, MixAudioAtOffsets) {
  DerivationGraph graph;
  // 1 s tone at t=0, another at t=2; total 3 s.
  NodeId a = graph.AddLeaf(audiogen::Sine(8000, 1, 440, 0.4, 1.0), "a");
  NodeId b = graph.AddLeaf(audiogen::Sine(8000, 1, 880, 0.4, 1.0), "b");
  MultimediaObject mm("m", &graph);
  ASSERT_TRUE(mm.AddComponent("c1", a, Rational(0)).ok());
  ASSERT_TRUE(mm.AddComponent("c2", b, Rational(2)).ok());
  auto mix = mm.MixAudio(8000, 1);
  ASSERT_TRUE(mix.ok());
  EXPECT_EQ(mix->FrameCount(), 3 * 8000);
  // The gap [1 s, 2 s) is silent.
  int64_t gap_peak = 0;
  for (int64_t f = 8400; f < 15600; ++f) {
    gap_peak = std::max<int64_t>(gap_peak, std::abs(mix->samples[f]));
  }
  EXPECT_EQ(gap_peak, 0);
  // Both tones are present.
  int64_t head_peak = 0, tail_peak = 0;
  for (int64_t f = 0; f < 8000; ++f) {
    head_peak = std::max<int64_t>(head_peak, std::abs(mix->samples[f]));
  }
  for (int64_t f = 16000; f < 24000; ++f) {
    tail_peak = std::max<int64_t>(tail_peak, std::abs(mix->samples[f]));
  }
  EXPECT_GT(head_peak, 10000);
  EXPECT_GT(tail_peak, 10000);
}

TEST(MultimediaTest, EmptyTimelineRenders) {
  DerivationGraph graph;
  MultimediaObject mm("empty", &graph);
  auto ascii = mm.RenderTimelineAscii();
  ASSERT_TRUE(ascii.ok());
  EXPECT_NE(ascii->find("empty timeline"), std::string::npos);
  EXPECT_EQ(*mm.Duration(), Rational(0));
  EXPECT_TRUE(mm.Timeline()->empty());
}

TEST(MultimediaTest, MixRejectsFormatMismatch) {
  DerivationGraph graph;
  NodeId a = graph.AddLeaf(audiogen::Sine(44100, 2, 440, 0.4, 1.0), "a");
  MultimediaObject mm("m", &graph);
  ASSERT_TRUE(mm.AddComponent("c1", a, Rational(0)).ok());
  EXPECT_TRUE(mm.MixAudio(8000, 1).status().IsInvalidArgument());
}

TEST(MultimediaTest, SpatialCompositionLayers) {
  DerivationGraph graph;
  // Two stills placed at different positions and layers.
  Image red = Image::Zero(20, 20, ColorModel::kRgb24);
  Bytes red_px(red.data.size(), 0);
  for (size_t i = 0; i < red_px.size(); i += 3) red_px[i] = 255;
  red.data = std::move(red_px);
  Image blue = Image::Zero(20, 20, ColorModel::kRgb24);
  Bytes blue_px(blue.data.size(), 0);
  for (size_t i = 2; i < blue_px.size(); i += 3) blue_px[i] = 255;
  blue.data = std::move(blue_px);
  NodeId red_node = graph.AddLeaf(red, "red");
  NodeId blue_node = graph.AddLeaf(blue, "blue");
  MultimediaObject mm("m", &graph);
  ASSERT_TRUE(mm.AddComponent("c1", red_node, Rational(0),
                              SpatialPlacement{0, 0, 0})
                  .ok());
  ASSERT_TRUE(mm.AddComponent("c2", blue_node, Rational(0),
                              SpatialPlacement{10, 10, 1})
                  .ok());
  auto frame = mm.RenderFrameAt(0.0, 40, 40);
  ASSERT_TRUE(frame.ok());
  auto pixel = [&](int x, int y) {
    return frame->data.data() + 3 * (static_cast<size_t>(y) * 40 + x);
  };
  EXPECT_EQ(pixel(5, 5)[0], 255);   // Red only.
  EXPECT_EQ(pixel(15, 15)[2], 255); // Overlap: blue wins (higher layer).
  EXPECT_EQ(pixel(15, 15)[0], 0);
  EXPECT_EQ(pixel(35, 35)[0], 0);   // Background.
}

TEST(MultimediaTest, VideoComponentSelectsFrameByTime) {
  DerivationGraph graph;
  NodeId video = graph.AddLeaf(TestVideo(50, 77), "v");  // 2 s at 25 fps.
  MultimediaObject mm("m", &graph);
  ASSERT_TRUE(mm.AddComponent("c1", video, Rational(1)).ok());
  // Before the component starts: black canvas.
  auto before = mm.RenderFrameAt(0.5, 48, 32);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*std::max_element(before->data.begin(), before->data.end()), 0);
  // At t = 2.0 s the component is 1 s in: frame 25.
  auto during = mm.RenderFrameAt(2.0, 48, 32);
  ASSERT_TRUE(during.ok());
  auto evaluated = graph.Evaluate(video);
  ASSERT_TRUE(evaluated.ok());
  const VideoValue& vv = std::get<VideoValue>(**evaluated);
  EXPECT_EQ(during->data, vv.frames[25].data);
  // After the end: black again.
  auto after = mm.RenderFrameAt(5.0, 48, 32);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*std::max_element(after->data.begin(), after->data.end()), 0);
}

}  // namespace
}  // namespace tbm
