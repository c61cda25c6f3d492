//! Packet-trace record and replay.
//!
//! The paper's methodology extracts traces from a full-system simulator and
//! replays them through the network simulator. [`TraceRecorder`] wraps any
//! [`TrafficModel`] and logs every emitted request with its cycle;
//! [`TraceReplay`] plays a recorded trace back, open-loop, so two router
//! configurations can be compared on *identical* input (and so tests get
//! deterministic workloads).
//!
//! The on-disk format is a plain text line format —
//! `cycle src dst len class` — chosen over a serde format so the workspace
//! needs no serialization dependency (DESIGN.md §8 states the grammar, the
//! limits and the error contract). The codec works on bytes: a trace is
//! read once per configuration of every sweep, so [`read_trace`] takes its
//! lines straight out of the reader's buffer and [`write_trace`] formats
//! into one reused line, neither allocating per record.

use crate::{PacketRequest, TrafficModel};
use noc_base::{NodeId, PacketClass};
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};

/// One packet injection event.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Cycle the packet was requested.
    pub cycle: u64,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Length in flits.
    pub len: u16,
    /// Semantic class.
    pub class: PacketClass,
}

fn class_code(class: PacketClass) -> &'static [u8] {
    match class {
        PacketClass::Data => b"D",
        PacketClass::ReadRequest => b"RQ",
        PacketClass::ReadResponse => b"RS",
        PacketClass::WriteRequest => b"WQ",
        PacketClass::WriteAck => b"WA",
        PacketClass::Coherence => b"C",
    }
}

fn class_from_code(code: &[u8]) -> Option<PacketClass> {
    Some(match code {
        b"D" => PacketClass::Data,
        b"RQ" => PacketClass::ReadRequest,
        b"RS" => PacketClass::ReadResponse,
        b"WQ" => PacketClass::WriteRequest,
        b"WA" => PacketClass::WriteAck,
        b"C" => PacketClass::Coherence,
        _ => return None,
    })
}

/// Error parsing a trace file.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line, with its 1-based line number.
    Parse {
        /// 1-based line number of the malformed line.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Appends `value` in decimal.
fn push_decimal(line: &mut Vec<u8>, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    line.extend_from_slice(&digits[at..]);
}

/// Writes records in the line format. Lines beginning with `#` are comments.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(mut w: W, records: &[TraceRecord]) -> io::Result<()> {
    w.write_all(b"# pseudo-circuit packet trace: cycle src dst len class\n")?;
    let mut line = Vec::with_capacity(64);
    for r in records {
        line.clear();
        for value in [
            r.cycle,
            r.src.index() as u64,
            r.dst.index() as u64,
            r.len as u64,
        ] {
            push_decimal(&mut line, value);
            line.push(b' ');
        }
        line.extend_from_slice(class_code(r.class));
        line.push(b'\n');
        w.write_all(&line)?;
    }
    Ok(())
}

/// A numeric field — what `u64::from_str` accepts, decimal digits after an
/// optional `+` — no larger than `max`.
fn number(field: &[u8], what: &str, max: u64) -> Result<u64, String> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    let value = digits
        .iter()
        .try_fold(0u64, |value, &b| {
            let digit = b.is_ascii_digit().then(|| (b - b'0') as u64)?;
            value.checked_mul(10)?.checked_add(digit)
        })
        .filter(|_| !digits.is_empty())
        .ok_or_else(|| format!("bad {what}: {:?}", String::from_utf8_lossy(field)))?;
    if value > max {
        return Err(format!("{what} {value} out of range (max {max})"));
    }
    Ok(value)
}

/// Parses one line (without its `\n`): a record, `None` for a blank or
/// comment line, or what is wrong with it. Fields are separated by what
/// `str::split_whitespace` splits ASCII text on; a non-ASCII byte never
/// separates, it is part of a field.
fn parse_line(line: &[u8], last_cycle: &mut u64) -> Result<Option<TraceRecord>, String> {
    let is_space = |b: &u8| matches!(b, b' ' | b'\t'..=b'\r');
    let mut fields = [&[][..]; 5];
    let mut found = 0;
    for field in line.split(is_space).filter(|f| !f.is_empty()) {
        if found == 0 && field[0] == b'#' {
            break;
        }
        if let Some(slot) = fields.get_mut(found) {
            *slot = field;
        }
        found += 1;
    }
    if found == 0 {
        return Ok(None);
    }
    if found != 5 {
        return Err(format!("expected 5 fields, found {found}"));
    }
    let [cycle, src, dst, len, class] = fields;
    let cycle = number(cycle, "cycle", u64::MAX)?;
    if cycle < *last_cycle {
        return Err(format!("cycle {cycle} out of order (last {last_cycle})"));
    }
    *last_cycle = cycle;
    let len = number(len, "length", u16::MAX as u64)? as u16;
    if len == 0 {
        return Err("zero-length packet".into());
    }
    let class = class_from_code(class)
        .ok_or_else(|| format!("unknown class {:?}", String::from_utf8_lossy(class)))?;
    Ok(Some(TraceRecord {
        cycle,
        src: NodeId::new(number(src, "src", u32::MAX as u64)? as usize),
        dst: NodeId::new(number(dst, "dst", u32::MAX as u64)? as usize),
        len,
        class,
    }))
}

/// Reads records from the line format, streaming: lines are parsed where
/// they lie in the reader's buffer, and only a line that spans two buffer
/// fills is copied (into one reused carry buffer).
///
/// # Errors
///
/// Returns [`TraceError::Parse`], naming the 1-based line, on a malformed
/// line (wrong field count, non-numeric field, unknown class code, zero or
/// over-long length, node id that does not fit 32 bits, or cycles out of
/// order) and [`TraceError::Io`] on reader failure.
pub fn read_trace<R: BufRead>(mut r: R) -> Result<Vec<TraceRecord>, TraceError> {
    let mut records = Vec::new();
    let (mut line_no, mut last_cycle) = (0, 0);
    let mut parse = |text: &[u8]| {
        line_no += 1;
        let line = line_no;
        parse_line(text, &mut last_cycle).map_err(|message| TraceError::Parse { line, message })
    };
    let mut carry = Vec::new();
    loop {
        let chunk = match r.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let mut rest = chunk;
        while let Some(end) = rest.iter().position(|&b| b == b'\n') {
            if carry.is_empty() {
                records.extend(parse(&rest[..end])?);
            } else {
                carry.extend_from_slice(&rest[..end]);
                records.extend(parse(&carry)?);
                carry.clear();
            }
            rest = &rest[end + 1..];
        }
        carry.extend_from_slice(rest);
        let consumed = chunk.len();
        r.consume(consumed);
        if consumed == 0 {
            break;
        }
    }
    if !carry.is_empty() {
        records.extend(parse(&carry)?);
    }
    Ok(records)
}

/// Wraps a traffic model and records everything it emits.
pub struct TraceRecorder<T> {
    inner: T,
    records: Vec<TraceRecord>,
}

impl<T: TrafficModel> TraceRecorder<T> {
    /// Starts recording `inner`.
    pub fn new(inner: T) -> Self {
        Self {
            inner,
            records: Vec::new(),
        }
    }

    /// The records captured so far.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Stops recording and returns the model and the captured trace.
    pub fn into_parts(self) -> (T, Vec<TraceRecord>) {
        (self.inner, self.records)
    }
}

impl<T: TrafficModel + 'static> TrafficModel for TraceRecorder<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn generate(&mut self, cycle: u64, sink: &mut dyn FnMut(PacketRequest)) {
        let records = &mut self.records;
        self.inner.generate(cycle, &mut |request| {
            records.push(TraceRecord {
                cycle,
                src: request.src,
                dst: request.dst,
                len: request.len,
                class: request.class,
            });
            sink(request);
        });
    }

    fn deliver(&mut self, cycle: u64, packet: &crate::DeliveredPacket) {
        self.inner.deliver(cycle, packet);
    }

    fn has_pending_work(&self) -> bool {
        self.inner.has_pending_work()
    }

    fn next_injection_cycle(&mut self, from: u64, horizon: u64) -> Option<u64> {
        // Recording is passive: skipped cycles emit nothing, so there is
        // nothing to record and the inner model's prediction stands.
        self.inner.next_injection_cycle(from, horizon)
    }
}

/// Replays a recorded trace, open-loop.
pub struct TraceReplay {
    records: Vec<TraceRecord>,
    next: usize,
    name: String,
}

impl TraceReplay {
    /// Creates a replay over records sorted by cycle.
    ///
    /// # Panics
    ///
    /// Panics if the records are not sorted by cycle.
    pub fn new(name: impl Into<String>, records: Vec<TraceRecord>) -> Self {
        assert!(
            records.windows(2).all(|w| w[0].cycle <= w[1].cycle),
            "trace records must be sorted by cycle"
        );
        Self {
            records,
            next: 0,
            name: name.into(),
        }
    }

    /// Remaining (unreplayed) record count.
    pub fn remaining(&self) -> usize {
        self.records.len() - self.next
    }
}

impl TrafficModel for TraceReplay {
    fn name(&self) -> &str {
        &self.name
    }

    fn generate(&mut self, cycle: u64, sink: &mut dyn FnMut(PacketRequest)) {
        while let Some(r) = self.records.get(self.next) {
            if r.cycle > cycle {
                break;
            }
            sink(PacketRequest {
                src: r.src,
                dst: r.dst,
                len: r.len,
                class: r.class,
            });
            self.next += 1;
        }
    }

    fn has_pending_work(&self) -> bool {
        self.next < self.records.len()
    }

    fn next_injection_cycle(&mut self, from: u64, horizon: u64) -> Option<u64> {
        match self.records.get(self.next) {
            // An overdue record (cycle < from) is emitted by the next
            // `generate` call, so the clamp reports "due immediately".
            Some(r) => Some(r.cycle.clamp(from, horizon)),
            None => Some(horizon),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticPattern, SyntheticTraffic};
    use proptest::prelude::*;

    /// The line-based reader the byte codec replaced, kept as its reference:
    /// `BufRead::lines`, `str::split_whitespace`, `str::parse`. Its three
    /// silent truncations (`as u16`, `as usize` into a 32-bit id, non-UTF-8
    /// as an anonymous I/O error) are what the codec rejects instead.
    fn read_trace_by_lines<R: BufRead>(r: R) -> Result<Vec<TraceRecord>, TraceError> {
        let mut records = Vec::new();
        let mut last_cycle = 0u64;
        for (idx, line) in r.lines().enumerate() {
            let line = line?;
            let line_no = idx + 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let parse = |s: &str, what: &str| -> Result<u64, TraceError> {
                s.parse().map_err(|_| TraceError::Parse {
                    line: line_no,
                    message: format!("bad {what}: {s:?}"),
                })
            };
            let fields: Vec<&str> = trimmed.split_whitespace().collect();
            if fields.len() != 5 {
                return Err(TraceError::Parse {
                    line: line_no,
                    message: format!("expected 5 fields, found {}", fields.len()),
                });
            }
            let cycle = parse(fields[0], "cycle")?;
            if cycle < last_cycle {
                return Err(TraceError::Parse {
                    line: line_no,
                    message: format!("cycle {cycle} out of order (last {last_cycle})"),
                });
            }
            last_cycle = cycle;
            let len = parse(fields[3], "length")? as u16;
            if len == 0 {
                return Err(TraceError::Parse {
                    line: line_no,
                    message: "zero-length packet".into(),
                });
            }
            let class = class_from_code(fields[4].as_bytes()).ok_or_else(|| TraceError::Parse {
                line: line_no,
                message: format!("unknown class {:?}", fields[4]),
            })?;
            records.push(TraceRecord {
                cycle,
                src: NodeId::new(parse(fields[1], "src")? as usize),
                dst: NodeId::new(parse(fields[2], "dst")? as usize),
                len,
                class,
            });
        }
        Ok(records)
    }

    /// The `writeln!` writer the byte codec replaced.
    fn write_trace_by_writeln<W: Write>(mut w: W, records: &[TraceRecord]) -> io::Result<()> {
        writeln!(w, "# pseudo-circuit packet trace: cycle src dst len class")?;
        for r in records {
            let class = std::str::from_utf8(class_code(r.class)).expect("ascii code");
            let (src, dst) = (r.src.index(), r.dst.index());
            writeln!(w, "{} {src} {dst} {} {class}", r.cycle, r.len)?;
        }
        Ok(())
    }

    const CLASSES: [PacketClass; 6] = [
        PacketClass::Data,
        PacketClass::ReadRequest,
        PacketClass::ReadResponse,
        PacketClass::WriteRequest,
        PacketClass::WriteAck,
        PacketClass::Coherence,
    ];

    /// Sorted records that reach every limit of the format: `cycle =
    /// u64::MAX`, `len = 65535`, 32-bit node ids, every class code.
    fn limit_records() -> impl Strategy<Value = Vec<TraceRecord>> {
        let field = |limit: u64| {
            (0u64..4, 0..=limit).prop_map(move |(pick, v)| match pick {
                0 => limit,
                1 => v % 100,
                _ => v,
            })
        };
        let record = (
            field(u64::MAX),
            field(u32::MAX as u64),
            field(u32::MAX as u64),
            field(u16::MAX as u64 - 1),
            0..CLASSES.len(),
        );
        prop::collection::vec(record, 0..24).prop_map(|mut raw| {
            raw.sort_by_key(|r| r.0);
            raw.into_iter()
                .map(|(cycle, src, dst, len, class)| TraceRecord {
                    cycle,
                    src: NodeId::new(src as usize),
                    dst: NodeId::new(dst as usize),
                    len: len as u16 + 1,
                    class: CLASSES[class],
                })
                .collect()
        })
    }

    fn outcome(result: Result<Vec<TraceRecord>, TraceError>) -> Result<Vec<TraceRecord>, String> {
        result.map_err(|e| e.to_string())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The byte codec against the line-based one: same bytes written,
        /// and over decorated, corrupted, truncated and chunked input the
        /// same records or the same error (line and message).
        #[test]
        fn byte_codec_matches_the_line_based_reference(
            records in limit_records(),
            decorations in prop::collection::vec(0usize..8, 1..6),
            corrupt_line in 0usize..24,
            corrupt_kind in 0usize..10,
            noise in any::<u64>(),
            cut in 0usize..2048,
            capacity in 0usize..3,
        ) {
            let mut written = Vec::new();
            write_trace(&mut written, &records).unwrap();
            let mut reference = Vec::new();
            write_trace_by_writeln(&mut reference, &records).unwrap();
            prop_assert_eq!(&written, &reference);

            let mut text = Vec::new();
            for (i, line) in written.split(|&b| b == b'\n').enumerate() {
                if i == written.iter().filter(|&&b| b == b'\n').count() {
                    break; // the empty piece after the final newline
                }
                let mut fields: Vec<Vec<u8>> = line
                    .split(|&b| b == b' ')
                    .map(<[u8]>::to_vec)
                    .collect();
                if i == 1 + corrupt_line && fields.len() == 5 {
                    let at = noise as usize % 4;
                    match corrupt_kind {
                        0 => drop(fields.remove(at)),
                        1 => fields.insert(at, fields[at].clone()),
                        2 => fields[at] = b"x7".to_vec(),
                        3 => fields[at] = b"3141592653589793238462643".to_vec(),
                        4 => fields[0] = (noise >> 8).to_string().into_bytes(),
                        5 => fields[4] = b"ZZ".to_vec(),
                        6 => fields[3] = b"0".to_vec(),
                        7 => fields.insert(1 + at, b"#late".to_vec()),
                        _ => {}
                    }
                }
                let (indent, separator, ending): (&[u8], &[u8], &[u8]) =
                    match decorations[i % decorations.len()] {
                        0 => (b"", b" ", b"\r\n"),
                        1 => (b" \t", b"\t ", b" \n"),
                        2 => (b"\n", b" ", b"\n"),
                        3 => (b"# note 1 2 3\n", b" ", b"\n"),
                        4 => (b"  \r\n", b"  ", b"\x0b\x0c\n"),
                        _ => (b"", b" ", b"\n"),
                    };
                text.extend_from_slice(indent);
                text.extend_from_slice(&fields.join(separator));
                text.extend_from_slice(ending);
            }
            text.truncate(cut.max(1).min(text.len()));

            let capacity = [3, 7, 8192][capacity];
            let parsed = read_trace(io::BufReader::with_capacity(capacity, &text[..]));
            let expected = read_trace_by_lines(&text[..]);
            prop_assert_eq!(outcome(parsed), outcome(expected));
        }
    }

    #[test]
    fn long_trace_crosses_reader_buffers() {
        let records: Vec<TraceRecord> = (0..3_000u64)
            .map(|i| TraceRecord {
                cycle: i * i,
                src: NodeId::new((i * 7 % 64) as usize),
                dst: NodeId::new((i * 13 % 64) as usize),
                len: 1 + (i % 5) as u16,
                class: CLASSES[(i % 6) as usize],
            })
            .collect();
        let mut written = Vec::new();
        write_trace(&mut written, &records).unwrap();
        assert!(written.len() > 4 * 8192, "spans several reader buffers");
        let mut reference = Vec::new();
        write_trace_by_writeln(&mut reference, &records).unwrap();
        assert_eq!(written, reference);
        for capacity in [3, 64, 8192] {
            let reader = io::BufReader::with_capacity(capacity, &written[..]);
            assert_eq!(read_trace(reader).unwrap(), records);
        }
    }

    #[test]
    fn silent_truncations_are_parse_errors_naming_line_and_field() {
        for (text, line, field) in [
            (&b"0 1 2 65537 D\n"[..], 1, "length 65537 out of range"),
            (b"# h\n0 1 2 65536 D\n", 2, "length 65536 out of range"),
            (b"0 4294967296 2 1 D\n", 1, "src 4294967296 out of range"),
            (
                b"0 1 2 1 D\n1 1 4294967297 1 D\n",
                2,
                "dst 4294967297 out of range",
            ),
            (b"\n0 1 \xff\xfe 1 D\n", 2, "bad dst"),
            (b"0 1 2 1 \xc3\x28\n", 1, "unknown class"),
        ] {
            match read_trace(text) {
                Err(TraceError::Parse { line: at, message }) => {
                    assert_eq!(at, line, "{message}");
                    assert!(message.contains(field), "{message}");
                }
                other => panic!("{:?} parsed as {other:?}", String::from_utf8_lossy(text)),
            }
        }
        // The limits themselves are legal.
        let edge = b"18446744073709551615 4294967295 0 65535 C";
        let parsed = read_trace(&edge[..]).unwrap();
        assert_eq!((parsed[0].cycle, parsed[0].len), (u64::MAX, u16::MAX));
        assert_eq!(parsed[0].src.index(), u32::MAX as usize);
    }

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                cycle: 0,
                src: NodeId::new(1),
                dst: NodeId::new(2),
                len: 1,
                class: PacketClass::ReadRequest,
            },
            TraceRecord {
                cycle: 3,
                src: NodeId::new(2),
                dst: NodeId::new(1),
                len: 5,
                class: PacketClass::ReadResponse,
            },
            TraceRecord {
                cycle: 3,
                src: NodeId::new(0),
                dst: NodeId::new(7),
                len: 5,
                class: PacketClass::Data,
            },
        ]
    }

    #[test]
    fn write_read_roundtrip() {
        let records = sample_records();
        let mut buf = Vec::new();
        write_trace(&mut buf, &records).unwrap();
        let parsed = read_trace(&buf[..]).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# header\n\n0 1 2 1 D\n  \n1 2 3 5 RS\n";
        let parsed = read_trace(text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad_fields = read_trace("0 1 2 1\n".as_bytes()).unwrap_err();
        assert!(bad_fields.to_string().contains("line 1"));
        let bad_class = read_trace("0 1 2 1 XX\n".as_bytes()).unwrap_err();
        assert!(bad_class.to_string().contains("unknown class"));
        let bad_num = read_trace("zero 1 2 1 D\n".as_bytes()).unwrap_err();
        assert!(bad_num.to_string().contains("bad cycle"));
        let out_of_order = read_trace("5 1 2 1 D\n3 1 2 1 D\n".as_bytes()).unwrap_err();
        assert!(out_of_order.to_string().contains("out of order"));
        let zero_len = read_trace("0 1 2 0 D\n".as_bytes()).unwrap_err();
        assert!(zero_len.to_string().contains("zero-length"));
    }

    #[test]
    fn recorder_captures_synthetic_traffic() {
        let inner = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 4, 4, 3, 0.3, 9);
        let mut rec = TraceRecorder::new(inner);
        let mut count = 0;
        for cycle in 0..200 {
            rec.generate(cycle, &mut |_r| count += 1);
        }
        assert_eq!(rec.records().len(), count);
        assert!(count > 0);
        let (_inner, records) = rec.into_parts();
        assert!(records.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    fn replay_reproduces_the_recording() {
        let inner = SyntheticTraffic::new(SyntheticPattern::Transpose, 4, 4, 2, 0.2, 4);
        let mut rec = TraceRecorder::new(inner);
        let mut original = Vec::new();
        for cycle in 0..300 {
            rec.generate(cycle, &mut |r| original.push((cycle, r)));
        }
        let (_, records) = rec.into_parts();
        let mut replay = TraceReplay::new("replay", records);
        assert!(replay.has_pending_work());
        let mut replayed = Vec::new();
        for cycle in 0..300 {
            replay.generate(cycle, &mut |r| replayed.push((cycle, r)));
        }
        assert_eq!(original, replayed);
        assert!(!replay.has_pending_work());
        assert_eq!(replay.remaining(), 0);
    }

    #[test]
    fn replay_catches_up_after_skipped_cycles() {
        let mut replay = TraceReplay::new("t", sample_records());
        let mut seen = Vec::new();
        // Jump straight to cycle 10: all three records must be emitted.
        replay.generate(10, &mut |r| seen.push(r));
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn replay_predicts_next_injection_from_the_records() {
        let mut replay = TraceReplay::new("t", sample_records());
        // First record is at cycle 0: due immediately.
        assert_eq!(replay.next_injection_cycle(0, 100), Some(0));
        let mut n = 0;
        replay.generate(0, &mut |_| n += 1);
        assert_eq!(n, 1);
        // Next records are at cycle 3; horizon clamps the answer.
        assert_eq!(replay.next_injection_cycle(1, 100), Some(3));
        assert_eq!(replay.next_injection_cycle(1, 2), Some(2));
        replay.generate(3, &mut |_| n += 1);
        assert_eq!(n, 3);
        // Exhausted trace: nothing before any horizon.
        assert_eq!(replay.next_injection_cycle(4, 100), Some(100));
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_replay_rejected() {
        let mut records = sample_records();
        records.swap(0, 1);
        let _ = TraceReplay::new("bad", records);
    }
}
