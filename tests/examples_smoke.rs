//! Smoke test mirroring `examples/quickstart.rs`, so the example's flow
//! cannot silently rot: same channel, same processor preset, same
//! parameters — but asserting on the outcome instead of printing it.

use leaky_frontends_repro::attacks::channels::{ChannelSpec, CovertChannel};
use leaky_frontends_repro::attacks::params::{bits_to_bytes, bytes_to_bits};
use leaky_frontends_repro::cpu::ProcessorModel;

fn quickstart_channel() -> Box<dyn CovertChannel> {
    ChannelSpec::new("non-mt-fast-misalignment")
        .model(ProcessorModel::xeon_e2288g())
        .seed(42)
        .build()
        .expect("registered channel")
}

#[test]
fn quickstart_flow_roundtrips_a_message() {
    let message = "The DSB never forgets.";

    let mut channel = quickstart_channel();

    let sent_bits = bytes_to_bits(message.as_bytes());
    let run = channel.transmit(&sent_bits);
    let received = String::from_utf8_lossy(&bits_to_bytes(run.received())).into_owned();

    // The paper's Table III operating point for this channel on the
    // E-2288G is 1410.84 Kbps at 0.00% error; the reproduction must at
    // least deliver the message intact at a Mbps-class rate.
    assert_eq!(received, message, "message must roundtrip bit-exactly");
    assert_eq!(
        run.error_rate(),
        0.0,
        "fast channel on E-2288G is error-free"
    );
    assert!(
        run.rate_kbps() > 500.0,
        "rate {:.1} Kbps not Mbps-class",
        run.rate_kbps()
    );
    assert!(run.seconds() > 0.0, "simulated time must advance");
    assert_eq!(run.sent().len(), message.len() * 8);
}

#[test]
fn quickstart_is_deterministic_across_runs() {
    let transmit = || quickstart_channel().transmit(&bytes_to_bits(b"determinism"));
    let a = transmit();
    let b = transmit();
    assert_eq!(a.received(), b.received());
    assert_eq!(a.rate_kbps(), b.rate_kbps());
}
