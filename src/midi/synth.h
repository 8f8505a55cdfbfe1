#ifndef TBM_MIDI_SYNTH_H_
#define TBM_MIDI_SYNTH_H_

#include "codec/pcm.h"
#include "midi/midi.h"

namespace tbm {

/// Software wavetable synthesizer: the *type-changing derivation* of
/// Table 1 ("MIDI synthesis: music (MIDI) → audio"). Parameters are
/// the ones the paper names: tempo, channel-to-instrument mappings and
/// instrument parameters.
enum class Instrument : uint8_t {
  kSine = 0,
  kSquare = 1,
  kSawtooth = 2,
  kTriangle = 3,
  kPluck = 4,  ///< Decaying harmonic stack, guitar-ish.
  kOrgan = 5,  ///< Harmonic stack with sustain.
};

std::string_view InstrumentToString(Instrument instrument);

struct SynthParams {
  int64_t sample_rate = 44100;
  int32_t channels = 2;
  /// Overrides the sequence's tempo when > 0 (paper: tempo is a
  /// derivation parameter).
  double tempo_bpm = 0.0;
  /// Channel → instrument mapping; MIDI program-change events override
  /// per channel (program numbers are taken modulo the instrument
  /// count).
  Instrument default_instrument = Instrument::kSine;
  /// Master gain applied before clipping, 0..1.
  double gain = 0.5;
  /// Envelope attack/release in seconds.
  double attack_seconds = 0.005;
  double release_seconds = 0.05;
};

/// Renders a MIDI sequence to PCM audio. InvalidArgument for a bad
/// output format or a non-finite `gain` or `tempo_bpm`.
Result<AudioBuffer> Synthesize(const MidiSequence& sequence,
                               const SynthParams& params);

}  // namespace tbm

#endif  // TBM_MIDI_SYNTH_H_
