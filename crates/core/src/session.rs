//! Coded transmission sessions: [`crate::coding::Code`]s wired into the
//! covert-channel transmit path (§VI-B's "the simple encoding can in
//! future be replaced with other channel coding methods").
//!
//! A [`Session`] borrows any [`CovertChannel`], expands data bits through
//! a channel code, transmits the coded stream, and decodes what the
//! receiver heard — reporting both layers: the raw channel-bit run and
//! the data-bit run whose rate reflects the code overhead. Byte payloads
//! ride a small frame (a 16-bit length header) so the receiver knows
//! where the payload ends without an out-of-band length channel.
//!
//! # Examples
//!
//! ```
//! use leaky_frontends::channels::ChannelSpec;
//! use leaky_frontends::coding::Repetition;
//! use leaky_frontends::session::Session;
//!
//! let mut ch = ChannelSpec::new("non-mt-fast-eviction").seed(7).build().unwrap();
//! let run = Session::new(ch.as_mut(), Repetition::new(3)).send_bytes(b"hi");
//! assert_eq!(run.payload(), Some(&b"hi"[..]));
//! // Three channel bits carry one data bit: the data-layer rate pays 3x.
//! assert!(run.data().rate_kbps() < run.raw().rate_kbps());
//! ```

use crate::channels::CovertChannel;
use crate::coding::Code;
use crate::params::{bits_to_bytes, bytes_to_bits};
use crate::run::{ChannelRun, Evaluation};

/// Frame header: payload byte count, 16 bits MSB-first.
const LEN_HEADER_BITS: usize = 16;

/// A coded transmission session over a borrowed channel.
pub struct Session<'a, C: Code> {
    channel: &'a mut dyn CovertChannel,
    code: C,
}

impl<'a, C: Code> Session<'a, C> {
    /// Wraps a channel and a code. The channel is borrowed, so one
    /// calibrated channel can host many sessions (and codes) in turn.
    pub fn new(channel: &'a mut dyn CovertChannel, code: C) -> Self {
        Session { channel, code }
    }

    /// Transmits raw data bits through the code, without framing: the
    /// receiver is assumed to know the data length. The decoded stream
    /// is truncated to the sent length (block codes may pad).
    ///
    /// # Panics
    ///
    /// Panics if calibration found indistinguishable bit classes
    /// (`CovertChannel::transmit`).
    pub fn send_bits(&mut self, data: &[bool]) -> SessionRun {
        self.run(data, None)
    }

    /// Transmits a byte payload with framing: a 16-bit length header
    /// precedes the payload so the receiving side can recover the byte
    /// boundary from the bit stream alone.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds the 16-bit frame limit (65 535 bytes).
    pub fn send_bytes(&mut self, payload: &[u8]) -> SessionRun {
        assert!(
            payload.len() <= u16::MAX as usize,
            "payload exceeds the 16-bit frame limit"
        );
        let mut frame = bytes_to_bits(&(payload.len() as u16).to_be_bytes());
        frame.extend(bytes_to_bits(payload));
        self.run(&frame, Some(payload.len()))
    }

    fn run(&mut self, data: &[bool], framed_len: Option<usize>) -> SessionRun {
        let coded = self.code.encode(data);
        let raw = self.channel.transmit(&coded);
        let mut decoded = self.code.decode(raw.received());
        decoded.truncate(data.len());
        let payload = framed_len.is_some().then(|| {
            // The Code trait imposes no length contract on decode(); a
            // stream too short for even the header recovers zero bytes.
            if decoded.len() < LEN_HEADER_BITS {
                return Vec::new();
            }
            let header = &decoded[..LEN_HEADER_BITS];
            let mut len = header
                .iter()
                .fold(0usize, |acc, &b| (acc << 1) | b as usize);
            // A corrupted header cannot demand more bytes than arrived.
            let available = (decoded.len() - LEN_HEADER_BITS) / 8;
            len = len.min(available);
            bits_to_bytes(&decoded[LEN_HEADER_BITS..LEN_HEADER_BITS + len * 8])
        });
        let data_run = ChannelRun::new(data.to_vec(), decoded, raw.cycles(), raw.freq_hz());
        let data_run = match raw.provenance() {
            Some(p) => data_run.with_provenance(p.clone()),
            None => data_run,
        };
        SessionRun {
            raw,
            data: data_run,
            code: self.code.label(),
            code_rate: self.code.rate(),
            payload,
        }
    }
}

/// The outcome of one coded transmission: the raw channel-bit layer and
/// the decoded data-bit layer, sharing one wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRun {
    raw: ChannelRun,
    data: ChannelRun,
    code: String,
    code_rate: f64,
    payload: Option<Vec<u8>>,
}

impl SessionRun {
    /// The channel-bit layer: coded bits sent vs received, raw rate.
    pub fn raw(&self) -> &ChannelRun {
        &self.raw
    }

    /// The data-bit layer: data bits in vs decoded bits out, over the
    /// same wall time — so its rate and [`Evaluation`] charge the code's
    /// redundancy (and any framing) against throughput exactly.
    pub fn data(&self) -> &ChannelRun {
        &self.data
    }

    /// The code's label (e.g. `"repetition-3"`).
    pub fn code(&self) -> &str {
        &self.code
    }

    /// The code's rate (data bits per channel bit).
    pub fn code_rate(&self) -> f64 {
        self.code_rate
    }

    /// The recovered byte payload of a framed [`Session::send_bytes`]
    /// transmission (`None` for unframed bit sends). Channel errors in
    /// the header or body may shorten or corrupt it — that is the
    /// attack failing, not the harness.
    pub fn payload(&self) -> Option<&[u8]> {
        self.payload.as_deref()
    }

    /// Data-layer summary metrics (the code-rate-discounted numbers a
    /// result table reports).
    pub fn evaluation(&self) -> Evaluation {
        self.data.evaluation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::ChannelSpec;
    use crate::coding::{Hamming74, Repetition, Uncoded};
    use crate::params::MessagePattern;
    use leaky_cpu::ProcessorModel;

    fn quiet_channel(seed: u64) -> Box<dyn CovertChannel> {
        ChannelSpec::new("non-mt-fast-eviction")
            .model(ProcessorModel::xeon_e2288g())
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn framed_bytes_roundtrip_on_a_quiet_channel() {
        let mut ch = quiet_channel(7);
        let payload = b"leaky";
        let run = Session::new(ch.as_mut(), Repetition::new(3)).send_bytes(payload);
        assert_eq!(run.payload(), Some(&payload[..]));
        assert_eq!(run.code(), "repetition-3");
        assert_eq!(run.data().error_rate(), 0.0);
        // Frame = 16 header bits + 40 payload bits, each tripled.
        assert_eq!(run.raw().sent().len(), (16 + 40) * 3);
        assert_eq!(run.data().sent().len(), 16 + 40);
    }

    #[test]
    fn data_layer_charges_the_code_rate_exactly() {
        // Both layers share one wall clock, so data rate / raw rate must
        // equal data bits / channel bits — the code rate, exactly (the
        // Evaluation accounting of the redundancy overhead).
        let mut ch = quiet_channel(8);
        let data = MessagePattern::Random.generate(40, 2);
        let run = Session::new(ch.as_mut(), Repetition::new(5)).send_bits(&data);
        assert_eq!(run.raw().sent().len(), data.len() * 5);
        let expected = run.raw().rate_kbps() * run.code_rate();
        assert!(
            (run.data().rate_kbps() - expected).abs() / expected < 1e-12,
            "data {:.6} vs raw*rate {:.6} Kbps",
            run.data().rate_kbps(),
            expected
        );
        assert_eq!(run.evaluation().bits, data.len());
        assert_eq!(run.evaluation().rate_kbps, run.data().rate_kbps());
    }

    #[test]
    fn unframed_bits_truncate_block_padding() {
        let mut ch = quiet_channel(9);
        let data = MessagePattern::Random.generate(10, 4); // not a multiple of 4
        let run = Session::new(ch.as_mut(), Hamming74).send_bits(&data);
        assert_eq!(run.data().sent(), &data[..]);
        assert_eq!(run.data().received().len(), data.len());
        assert_eq!(run.payload(), None);
    }

    #[test]
    fn uncoded_session_is_the_identity_layer() {
        let mut ch = quiet_channel(11);
        let data = MessagePattern::Alternating.generate(24, 0);
        let run = Session::new(ch.as_mut(), Uncoded).send_bits(&data);
        assert_eq!(run.raw().sent(), run.data().sent());
        assert_eq!(run.code_rate(), 1.0);
        assert_eq!(run.data().rate_kbps(), run.raw().rate_kbps());
    }

    #[test]
    fn provenance_flows_to_both_layers() {
        let mut ch = quiet_channel(13);
        let run = Session::new(ch.as_mut(), Repetition::new(3)).send_bytes(&[0xa5]);
        for layer in [run.raw(), run.data()] {
            let p = layer.provenance().expect("provenance attached");
            assert_eq!(p.channel, "non-mt-fast-eviction");
            assert_eq!(p.profile, "skylake");
        }
    }

    #[test]
    fn short_decode_streams_recover_an_empty_payload_without_panicking() {
        // The Code trait imposes no length contract: a decoder may
        // return fewer bits than the frame header needs. That is a
        // corrupted frame (empty payload), not a harness panic.
        #[derive(Debug)]
        struct Truncating;
        impl Code for Truncating {
            fn encode(&self, data: &[bool]) -> Vec<bool> {
                data.to_vec()
            }
            fn decode(&self, channel: &[bool]) -> Vec<bool> {
                channel.iter().take(5).copied().collect()
            }
            fn rate(&self) -> f64 {
                1.0
            }
        }
        let mut ch = quiet_channel(17);
        let run = Session::new(ch.as_mut(), Truncating).send_bytes(&[0x5a]);
        assert_eq!(run.payload(), Some(&[][..]));
        assert_eq!(run.code(), "custom");
    }

    #[test]
    #[should_panic(expected = "frame limit")]
    fn oversized_payloads_are_rejected() {
        let mut ch = quiet_channel(15);
        let big = vec![0u8; 70_000];
        let _ = Session::new(ch.as_mut(), Uncoded).send_bytes(&big);
    }
}
