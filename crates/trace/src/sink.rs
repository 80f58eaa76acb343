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
}
