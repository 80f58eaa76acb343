//! Pluggable trace sinks.
//!
//! A [`TraceSink`] consumes a finished event stream — the hook itself
//! stays sink-free so the hot path never carries I/O. Ship the events
//! to a sink after the run with [`drain`].

use std::io;
use std::io::Write;

use crate::event::{TraceEvent, CSV_HEADER};

/// A consumer of trace events.
pub trait TraceSink {
    /// Records one event.
    fn record(&mut self, event: &TraceEvent) -> io::Result<()>;

    /// Flushes any buffered state. Called once, after the last event.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Feeds every event to `sink` in order, then finishes it.
pub fn drain(events: &[TraceEvent], sink: &mut dyn TraceSink) -> io::Result<()> {
    for e in events {
        sink.record(e)?;
    }
    sink.finish()
}

/// Writes the cyclotron-style CSV rendering ([`CSV_HEADER`] plus one
/// [`TraceEvent::csv_row`] per event) — the per-cell trace-file format
/// of `leaky_sweep --trace=events --trace-dir`.
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    writer: W,
    wrote_header: bool,
}

impl<W: Write> CsvSink<W> {
    /// Wraps a writer; the header is emitted before the first event.
    pub fn new(writer: W) -> Self {
        CsvSink {
            writer,
            wrote_header: false,
        }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> TraceSink for CsvSink<W> {
    fn record(&mut self, event: &TraceEvent) -> io::Result<()> {
        if !self.wrote_header {
            writeln!(self.writer, "{CSV_HEADER}")?;
            self.wrote_header = true;
        }
        writeln!(self.writer, "{}", event.csv_row())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

fn describe(event: &TraceEvent) -> String {
    // One human-readable line per event: the CSV columns, labelled.
    let row = event.csv_row();
    let mut cols = row.splitn(4, ',');
    let kind = cols.next().unwrap_or_default();
    let thread = cols.next().unwrap_or_default();
    let cycles = cols.next().unwrap_or_default();
    let detail = cols.next().unwrap_or_default();
    let mut line = format!("{kind:<18}");
    if !thread.is_empty() {
        line.push_str(&format!(" t{thread}"));
    }
    if !cycles.is_empty() {
        line.push_str(&format!(" cycles={cycles}"));
    }
    if !detail.is_empty() {
        line.push(' ');
        line.push_str(&detail.replace(';', " "));
    }
    line
}

/// Writes one human-readable line per event — the sink behind the
/// `debug_*` binaries' `--trace` output.
#[derive(Debug)]
pub struct TextSink<W: Write> {
    writer: W,
}

impl<W: Write> TextSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        TextSink { writer }
    }
}

impl<W: Write> TraceSink for TextSink<W> {
    fn record(&mut self, event: &TraceEvent) -> io::Result<()> {
        writeln!(self.writer, "{}", describe(event))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// A [`TextSink`] that prefixes each line with wall-clock milliseconds
/// since the sink was created.
///
/// This is the trace layer's **only** wall-clock consumer: its output
/// is explicitly non-deterministic and must never feed goldens, sweep
/// documents or anything else the determinism contract covers. It exists
/// for interactive debugging, where "when did the simulator reach this
/// event" is the question being asked.
#[derive(Debug)]
pub struct TimedTextSink<W: Write> {
    writer: W,
    start: std::time::Instant,
}

impl<W: Write> TimedTextSink<W> {
    /// Wraps a writer, starting the clock now.
    #[expect(
        clippy::disallowed_methods,
        reason = "debug-only wall-clock stamps; never part of a deterministic document"
    )]
    pub fn new(writer: W) -> Self {
        TimedTextSink {
            writer,
            start: std::time::Instant::now(),
        }
    }
}

impl<W: Write> TraceSink for TimedTextSink<W> {
    fn record(&mut self, event: &TraceEvent) -> io::Result<()> {
        let ms = self.start.elapsed().as_secs_f64() * 1e3;
        writeln!(self.writer, "[{ms:9.3}ms] {}", describe(event))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Source;

    fn events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::SourceSwitch {
                thread: 0,
                from: Source::Dsb,
                to: Source::Mite,
                penalty_cycles: 46.0,
            },
            TraceEvent::SessionStart { bits: 8 },
        ]
    }

    #[test]
    fn csv_sink_writes_header_then_rows() {
        let mut sink = CsvSink::new(Vec::new());
        drain(&events(), &mut sink).expect("in-memory write");
        let out = String::from_utf8(sink.into_inner()).expect("utf8");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines[1], "source_switch,0,46,from=dsb;to=mite");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn text_sink_labels_columns() {
        let mut buf = Vec::new();
        drain(&events(), &mut TextSink::new(&mut buf)).expect("in-memory write");
        let out = String::from_utf8(buf).expect("utf8");
        assert!(out.contains("source_switch"));
        assert!(out.contains("t0 cycles=46 from=dsb to=mite"));
        assert!(out.contains("bits=8"));
    }

    #[test]
    fn timed_sink_prefixes_milliseconds() {
        let mut buf = Vec::new();
        drain(&events(), &mut TimedTextSink::new(&mut buf)).expect("in-memory write");
        let out = String::from_utf8(buf).expect("utf8");
        assert!(out
            .lines()
            .all(|l| l.starts_with('[') && l.contains("ms] ")));
    }
}
