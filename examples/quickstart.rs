//! Quickstart: send a text message over the paper's fastest covert channel.
//!
//! Builds the Non-MT Fast Misalignment channel (§V-D) — the attack the
//! paper measured at 1.41 Mbps with ~0% error on the Xeon E-2288G — on a
//! simulated E-2288G core, transmits an ASCII string through the processor
//! frontend, and prints the achieved rate and error rate.
//!
//! Run with: `cargo run --release --example quickstart`

use leaky_frontends_repro::attacks::channels::ChannelSpec;
use leaky_frontends_repro::attacks::params::{bits_to_bytes, bytes_to_bits};
use leaky_frontends_repro::cpu::ProcessorModel;

fn main() {
    let message = "The DSB never forgets.";
    println!("sending:  {message:?}");

    let mut channel = ChannelSpec::new("non-mt-fast-misalignment")
        .model(ProcessorModel::xeon_e2288g())
        .seed(42)
        .build()
        .expect("registered channel");

    let sent_bits = bytes_to_bits(message.as_bytes());
    let run = channel.transmit(&sent_bits);

    let received = String::from_utf8_lossy(&bits_to_bytes(run.received())).into_owned();
    println!("received: {received:?}");
    println!(
        "rate: {:.1} Kbps, error rate: {:.2}% ({} bits in {:.2} ms of simulated time)",
        run.rate_kbps(),
        run.error_rate() * 100.0,
        run.sent().len(),
        run.seconds() * 1e3,
    );
    println!("paper reference (Table III, E-2288G): 1410.84 Kbps at 0.00% error");
}
