//! Page-aligned block traces.
//!
//! Records are already aligned to logical pages (the simulator's unit), so
//! converting to simulator host ops is a field-for-field mapping. A small
//! CSV codec allows traces to be saved and replayed.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Host read.
    Read,
    /// Host write.
    Write,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpKind::Read => "R",
            OpKind::Write => "W",
        })
    }
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival time in nanoseconds from trace start.
    pub at: u64,
    /// Read or write.
    pub kind: OpKind,
    /// First logical page.
    pub page: u64,
    /// Number of consecutive pages.
    pub pages: u32,
}

/// A complete trace plus the page size its records assume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Logical page size in bytes.
    pub page_size: u32,
    /// Records sorted by arrival time.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Total duration from first to last arrival (ns). Saturates at 0
    /// when the last record arrives before the first — an unsorted trace
    /// is rejected by the simulator's sources, not by an overflow here.
    pub fn span(&self) -> u64 {
        match (self.records.first(), self.records.last()) {
            (Some(f), Some(l)) => l.at.saturating_sub(f.at),
            _ => 0,
        }
    }

    /// The highest page touched plus one (the footprint bound).
    pub fn footprint_pages(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.page + r.pages as u64)
            .max()
            .unwrap_or(0)
    }

    /// Write as CSV (`at_ns,kind,page,pages` after a `# page_size=` header).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "# page_size={}", self.page_size)?;
        for r in &self.records {
            writeln!(w, "{},{},{},{}", r.at, r.kind, r.page, r.pages)?;
        }
        Ok(())
    }

    /// Parse the CSV form produced by [`Trace::write_csv`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed lines or a missing header.
    pub fn read_csv<R: BufRead>(r: R) -> io::Result<Self> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut lines = r.lines();
        let header = lines.next().ok_or_else(|| bad("empty trace".into()))??;
        let page_size: u32 = header
            .strip_prefix("# page_size=")
            .ok_or_else(|| bad(format!("bad header: {header}")))?
            .trim()
            .parse()
            .map_err(|e| bad(format!("bad page size: {e}")))?;
        let mut records = Vec::new();
        for line in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let mut next = || {
                parts
                    .next()
                    .ok_or_else(|| bad(format!("short line: {line}")))
            };
            let at = next()?.parse().map_err(|e| bad(format!("bad time: {e}")))?;
            let kind = match next()? {
                "R" => OpKind::Read,
                "W" => OpKind::Write,
                other => return Err(bad(format!("bad op kind: {other}"))),
            };
            let page = next()?.parse().map_err(|e| bad(format!("bad page: {e}")))?;
            let pages = next()?
                .parse()
                .map_err(|e| bad(format!("bad count: {e}")))?;
            records.push(TraceRecord {
                at,
                kind,
                page,
                pages,
            });
        }
        Ok(Trace { page_size, records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            page_size: 8192,
            records: vec![
                TraceRecord {
                    at: 0,
                    kind: OpKind::Write,
                    page: 0,
                    pages: 4,
                },
                TraceRecord {
                    at: 100,
                    kind: OpKind::Read,
                    page: 2,
                    pages: 1,
                },
                TraceRecord {
                    at: 250,
                    kind: OpKind::Read,
                    page: 10,
                    pages: 8,
                },
            ],
        }
    }

    #[test]
    fn csv_roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let parsed = Trace::read_csv(&buf[..]).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn span_and_footprint() {
        let t = sample();
        assert_eq!(t.span(), 250);
        assert_eq!(t.footprint_pages(), 18);
    }

    #[test]
    fn empty_trace_metrics_are_zero() {
        let t = Trace {
            page_size: 4096,
            records: vec![],
        };
        assert_eq!(t.span(), 0);
        assert_eq!(t.footprint_pages(), 0);
    }

    #[test]
    fn malformed_csv_rejected() {
        assert!(Trace::read_csv(&b"nonsense"[..]).is_err());
        assert!(Trace::read_csv(&b"# page_size=8192\n1,X,0,1"[..]).is_err());
        assert!(Trace::read_csv(&b"# page_size=8192\n1,R,0"[..]).is_err());
    }
}
