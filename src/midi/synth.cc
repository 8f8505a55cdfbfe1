#include "midi/synth.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace tbm {

std::string_view InstrumentToString(Instrument instrument) {
  switch (instrument) {
    case Instrument::kSine: return "sine";
    case Instrument::kSquare: return "square";
    case Instrument::kSawtooth: return "sawtooth";
    case Instrument::kTriangle: return "triangle";
    case Instrument::kPluck: return "pluck";
    case Instrument::kOrgan: return "organ";
  }
  return "unknown";
}

namespace {

constexpr int kInstrumentCount = 6;

double NoteFrequency(uint8_t note) {
  return 440.0 * std::pow(2.0, (static_cast<int>(note) - 69) / 12.0);
}

// Oscillator value at phase (cycles) for an instrument; `age` is the
// time since note-on in seconds, used for plucked decay.
double Oscillate(Instrument instrument, double phase, double age) {
  double frac = phase - std::floor(phase);
  switch (instrument) {
    case Instrument::kSine:
      return std::sin(2.0 * M_PI * frac);
    case Instrument::kSquare:
      return frac < 0.5 ? 0.7 : -0.7;
    case Instrument::kSawtooth:
      return 2.0 * frac - 1.0;
    case Instrument::kTriangle:
      return frac < 0.5 ? 4.0 * frac - 1.0 : 3.0 - 4.0 * frac;
    case Instrument::kPluck: {
      double decay = std::exp(-3.0 * age);
      return decay * (std::sin(2.0 * M_PI * frac) +
                      0.5 * std::sin(4.0 * M_PI * frac) +
                      0.25 * std::sin(6.0 * M_PI * frac));
    }
    case Instrument::kOrgan:
      return 0.6 * std::sin(2.0 * M_PI * frac) +
             0.3 * std::sin(4.0 * M_PI * frac) +
             0.15 * std::sin(8.0 * M_PI * frac);
  }
  return 0.0;
}

struct ActiveNote {
  uint8_t channel;
  uint8_t note;
  double velocity;    // 0..1
  int64_t on_frame;
  int64_t off_frame;  // INT64_MAX while held.
  double phase = 0.0;
};

}  // namespace

Result<AudioBuffer> Synthesize(const MidiSequence& sequence,
                               const SynthParams& params) {
  if (params.sample_rate <= 0 || params.channels <= 0) {
    return Status::InvalidArgument("bad synthesizer output format");
  }
  // A NaN gain rounds to garbage and +inf clips at full scale; an
  // infinite tempo puts every note at frame 0.
  if (!std::isfinite(params.gain)) {
    return Status::InvalidArgument("synthesizer gain must be finite");
  }
  if (!std::isfinite(params.tempo_bpm)) {
    return Status::InvalidArgument("synthesizer tempo must be finite");
  }
  const double bpm =
      params.tempo_bpm > 0.0 ? params.tempo_bpm : sequence.tempo_bpm();
  const double seconds_per_tick = 60.0 / (bpm * sequence.division());
  const double sr = static_cast<double>(params.sample_rate);

  auto tick_to_frame = [&](int64_t tick) {
    return static_cast<int64_t>(std::llround(tick * seconds_per_tick * sr));
  };

  const int64_t tail_frames =
      static_cast<int64_t>(params.release_seconds * sr) +
      params.sample_rate / 10;
  const int64_t total_frames =
      tick_to_frame(sequence.LastTick()) + tail_frames;

  AudioBuffer out;
  out.sample_rate = params.sample_rate;
  out.channels = params.channels;
  std::vector<int16_t> samples(
      static_cast<size_t>(total_frames) * params.channels, 0);

  std::array<Instrument, 16> channel_instrument;
  channel_instrument.fill(params.default_instrument);

  // Expand events to per-note segments with frame bounds.
  std::vector<ActiveNote> notes;
  std::vector<size_t> open;  // Indexes into notes still held.
  for (const MidiEvent& event : sequence.events()) {
    switch (event.kind) {
      case MidiEventKind::kProgramChange:
        channel_instrument[event.channel % 16] = static_cast<Instrument>(
            ((event.value % kInstrumentCount) + kInstrumentCount) %
            kInstrumentCount);
        break;
      case MidiEventKind::kNoteOn: {
        ActiveNote note;
        note.channel = event.channel;
        note.note = event.note;
        note.velocity = event.velocity / 127.0;
        note.on_frame = tick_to_frame(event.tick);
        note.off_frame = INT64_MAX;
        open.push_back(notes.size());
        notes.push_back(note);
        break;
      }
      case MidiEventKind::kNoteOff: {
        for (auto it = open.begin(); it != open.end(); ++it) {
          if (notes[*it].channel == event.channel &&
              notes[*it].note == event.note) {
            notes[*it].off_frame = tick_to_frame(event.tick);
            open.erase(it);
            break;
          }
        }
        break;
      }
      case MidiEventKind::kTempo:
        // Initial tempo only in this implementation; mid-sequence tempo
        // changes are ignored (documented simplification).
        break;
    }
  }
  for (size_t i : open) {
    notes[i].off_frame = tick_to_frame(sequence.LastTick());
  }

  // Additive render.
  std::vector<double> mix(total_frames, 0.0);
  const double attack_frames = std::max(1.0, params.attack_seconds * sr);
  const double release_frames = std::max(1.0, params.release_seconds * sr);
  for (const ActiveNote& note : notes) {
    const Instrument instrument = channel_instrument[note.channel % 16];
    const double freq = NoteFrequency(note.note);
    const double phase_inc = freq / sr;
    const int64_t end_frame =
        std::min<int64_t>(total_frames,
                          note.off_frame + static_cast<int64_t>(release_frames));
    double phase = 0.0;
    for (int64_t f = note.on_frame; f < end_frame; ++f) {
      const double age = (f - note.on_frame) / sr;
      double envelope = 1.0;
      if (f - note.on_frame < attack_frames) {
        envelope = (f - note.on_frame) / attack_frames;
      }
      if (f >= note.off_frame) {
        envelope *= 1.0 - (f - note.off_frame) / release_frames;
      }
      mix[f] += note.velocity * envelope * Oscillate(instrument, phase, age);
      phase += phase_inc;
    }
  }

  for (int64_t f = 0; f < total_frames; ++f) {
    double v = std::clamp(params.gain * mix[f], -1.0, 1.0);
    int16_t s = static_cast<int16_t>(std::lround(v * 32767.0));
    for (int32_t c = 0; c < params.channels; ++c) {
      samples[f * params.channels + c] = s;
    }
  }
  out.samples = std::move(samples);
  return out;
}

}  // namespace tbm
