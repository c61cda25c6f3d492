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
//! read once per configuration of every sweep, so [`read_trace`] tokenizes
//! its lines in one pass straight out of the reader's buffer and
//! [`write_trace`] formats into one reused 64 KiB block, neither allocating
//! per record.

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

/// The size of the blocks [`write_trace`] hands its writer.
const BLOCK: usize = 64 * 1024;

/// `n < 100` in two decimal digits, at `DIGIT_PAIRS[2n..2n + 2]`.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `value` in decimal at the start of `out`, two digits per table
/// lookup, and returns its length.
fn put_decimal(out: &mut [u8], mut value: u64) -> usize {
    let len = value.checked_ilog10().map_or(1, |log| log as usize + 1);
    for at in (0..len).rev().step_by(2) {
        let pair = 2 * (value % 100) as usize;
        out[at] = DIGIT_PAIRS[pair + 1];
        if at > 0 {
            out[at - 1] = DIGIT_PAIRS[pair];
        }
        value /= 100;
    }
    len
}

/// Writes records in the line format. Lines beginning with `#` are comments.
/// The lines are formatted into one reused block, handed to `w` whole
/// [`BLOCK`] bytes at a time: one `write_all` per block, not per record.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(mut w: W, records: &[TraceRecord]) -> io::Result<()> {
    let header = b"# pseudo-circuit packet trace: cycle src dst len class\n";
    // Past the block's end, room for the longest line (52 bytes).
    let mut block = vec![0u8; BLOCK + 64];
    block[..header.len()].copy_from_slice(header);
    let mut at = header.len();
    for r in records {
        for value in [
            r.cycle,
            r.src.index() as u64,
            r.dst.index() as u64,
            r.len as u64,
        ] {
            at += put_decimal(&mut block[at..], value);
            block[at] = b' ';
            at += 1;
        }
        for &b in class_code(r.class).iter().chain(b"\n") {
            block[at] = b;
            at += 1;
        }
        if at >= BLOCK {
            w.write_all(&block[..BLOCK])?;
            block.copy_within(BLOCK..at, 0);
            at -= BLOCK;
        }
    }
    w.write_all(&block[..at])
}

/// The next field of a line, past the white space at `*at` (what
/// `str::split_whitespace` splits ASCII text on), summed as its digits go by:
/// its start, its end, and its value if `u64::from_str` accepts it. `*at`
/// moves to its end; at the line's end it stops on the `\n` and gives `None`.
#[inline(always)]
fn field(text: &[u8], at: &mut usize) -> Option<(usize, usize, Option<u64>)> {
    let space = |i: usize| matches!(text.get(i).copied(), Some(b' ' | b'\t'..=b'\r'));
    while space(*at) && text[*at] != b'\n' {
        *at += 1;
    }
    let start = *at;
    let mut i = start + usize::from(text.get(start).filter(|&&b| b != b'\n')? == &b'+');
    let (digits, mut value) = (i, 0u64);
    while let Some(digit @ 0..=9) = text.get(i).map(|b| b.wrapping_sub(b'0')) {
        value = value.wrapping_mul(10).wrapping_add(digit as u64);
        i += 1;
    }
    let number = i > digits && (i == text.len() || space(i));
    while i < text.len() && !space(i) {
        i += 1;
    }
    *at = i;
    // Nineteen digits cannot overflow; more are summed again, checked.
    let value = match i - digits {
        _ if !number => None,
        ..=19 => Some(value),
        _ => text[digits..i].iter().try_fold(0u64, |v, &b| {
            v.checked_mul(10)?.checked_add((b - b'0') as u64)
        }),
    };
    Some((start, i, value))
}

/// Reads the line at the start of `text` if it ends there (at a `\n`) and
/// returns its end: its record goes to `records`, or the first failing check
/// in the order the error contract fixes (DESIGN.md §8) is the error.
#[inline]
fn read_line(
    text: &[u8],
    last_cycle: &mut u64,
    records: &mut Vec<TraceRecord>,
) -> Result<Option<usize>, String> {
    let (mut at, mut found, mut fields) = (0, 0, [(0, 0, None); 5]);
    while let Some(next) = field(text, &mut at) {
        if found == 0 && text[next.0] == b'#' {
            let end = text[at..].iter().position(|&b| b == b'\n');
            at = end.map_or(text.len(), |end| at + end);
            break;
        }
        if let Some(slot) = fields.get_mut(found) {
            *slot = next;
        }
        found += 1;
    }
    match found {
        _ if at == text.len() => return Ok(None),
        0 => return Ok(Some(at)),
        5 => {}
        found => return Err(format!("expected 5 fields, found {found}")),
    }
    let number = |k: usize, what: &str, max: u64| match fields[k] {
        (_, _, Some(value)) if value <= max => Ok(value),
        (start, end, value) => Err(bad_number(&text[start..end], value, what, max)),
    };
    let cycle = number(0, "cycle", u64::MAX)?;
    if cycle < *last_cycle {
        return Err(format!("cycle {cycle} out of order (last {last_cycle})"));
    }
    *last_cycle = cycle;
    let len = number(3, "length", u16::MAX as u64)? as u16;
    if len == 0 {
        return Err("zero-length packet".into());
    }
    let code = &text[fields[4].0..fields[4].1];
    let class = class_from_code(code)
        .ok_or_else(|| format!("unknown class {:?}", String::from_utf8_lossy(code)))?;
    records.push(TraceRecord {
        cycle,
        src: NodeId::new(number(1, "src", u32::MAX as u64)? as usize),
        dst: NodeId::new(number(2, "dst", u32::MAX as u64)? as usize),
        len,
        class,
    });
    Ok(Some(at))
}

/// What is wrong with a numeric field: not a number, or above `max`.
#[cold]
fn bad_number(field: &[u8], value: Option<u64>, what: &str, max: u64) -> String {
    match value {
        Some(value) => format!("{what} {value} out of range (max {max})"),
        None => format!("bad {what}: {:?}", String::from_utf8_lossy(field)),
    }
}

/// Reads records from the line format, streaming: each line is tokenized
/// where it lies in the reader's buffer, in the same pass that finds its
/// end, and only a line that spans two buffer fills is copied (into one
/// reused carry buffer).
///
/// # Errors
///
/// Returns [`TraceError::Parse`], naming the 1-based line, on a malformed
/// line (wrong field count, non-numeric field, unknown class code, zero or
/// over-long length, node id that does not fit 32 bits, or cycles out of
/// order) and [`TraceError::Io`] on reader failure.
pub fn read_trace<R: BufRead>(mut r: R) -> Result<Vec<TraceRecord>, TraceError> {
    let (mut records, mut carry, mut line, mut last_cycle) = (Vec::new(), Vec::new(), 0, 0);
    let mut take = |text: &[u8]| {
        let read = read_line(text, &mut last_cycle, &mut records);
        line += usize::from(read != Ok(None));
        read.map_err(|message| TraceError::Parse { line, message })
    };
    loop {
        let chunk = match r.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if chunk.is_empty() {
            break;
        }
        let mut rest = chunk;
        if !carry.is_empty() {
            // The line the previous fill ended inside, up to its end if
            // this fill has it.
            let end = rest.iter().position(|&b| b == b'\n');
            let end = end.map_or(rest.len(), |end| end + 1);
            carry.extend_from_slice(&rest[..end]);
            rest = &rest[end..];
            if carry.ends_with(b"\n") {
                take(&carry)?;
                carry.clear();
            }
        }
        while let Some(end) = take(rest)? {
            rest = &rest[end + 1..];
        }
        carry.extend_from_slice(rest);
        let consumed = chunk.len();
        r.consume(consumed);
    }
    if !carry.is_empty() {
        carry.push(b'\n'); // the last line, which has none
        take(&carry)?;
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
    use std::ops::Range;

    /// The grammar and its limits (DESIGN.md §8) stated line by line, the
    /// reference the one-pass reader is compared against: `BufRead::split`
    /// into lines, a split on ASCII white space into fields, `str::parse`
    /// for numbers and `try_from` for the limits.
    fn read_trace_by_lines<R: BufRead>(r: R) -> Result<Vec<TraceRecord>, TraceError> {
        let mut records = Vec::new();
        let mut last_cycle = 0u64;
        for (idx, line) in r.split(b'\n').enumerate() {
            let line = line?;
            let fail = |message: String| TraceError::Parse {
                line: idx + 1,
                message,
            };
            let fields: Vec<&[u8]> = line
                .split(|b| b" \t\n\x0b\x0c\r".contains(b))
                .filter(|f| !f.is_empty())
                .collect();
            if fields.first().is_none_or(|f| f[0] == b'#') {
                continue;
            }
            if fields.len() != 5 {
                return Err(fail(format!("expected 5 fields, found {}", fields.len())));
            }
            let shown = |f: &[u8]| String::from_utf8_lossy(f).into_owned();
            let parse = |f: &[u8], what: &str| {
                std::str::from_utf8(f)
                    .ok()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| fail(format!("bad {what}: {:?}", shown(f))))
            };
            let node = |f: &[u8], what: &str| {
                let id = parse(f, what)?;
                let id = u32::try_from(id)
                    .map_err(|_| fail(format!("{what} {id} out of range (max {})", u32::MAX)))?;
                Ok::<_, TraceError>(NodeId::new(id as usize))
            };
            let cycle = parse(fields[0], "cycle")?;
            if cycle < last_cycle {
                return Err(fail(format!(
                    "cycle {cycle} out of order (last {last_cycle})"
                )));
            }
            last_cycle = cycle;
            let len = parse(fields[3], "length")?;
            let len = u16::try_from(len)
                .map_err(|_| fail(format!("length {len} out of range (max {})", u16::MAX)))?;
            if len == 0 {
                return Err(fail("zero-length packet".into()));
            }
            let class = class_from_code(fields[4])
                .ok_or_else(|| fail(format!("unknown class {:?}", shown(fields[4]))))?;
            records.push(TraceRecord {
                cycle,
                src: node(fields[1], "src")?,
                dst: node(fields[2], "dst")?,
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

    /// `count` sorted records that reach every limit of the format: `cycle =
    /// u64::MAX`, `len = 65535`, 32-bit node ids, every class code.
    fn limit_records(count: Range<usize>) -> impl Strategy<Value = Vec<TraceRecord>> {
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
        prop::collection::vec(record, count).prop_map(|mut raw| {
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
            records in limit_records(0..24),
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

        /// Hostile bytes: a valid trace with bytes flipped, inserted and
        /// deleted, `\r` before a `\n`, `+` before a field and a tab for a
        /// space ends in the reference's records or in its error, line and
        /// message alike.
        #[test]
        fn mutated_bytes_read_like_the_reference(
            records in limit_records(0..24),
            edits in prop::collection::vec((0usize..6, any::<usize>(), any::<u8>()), 1..8),
            capacity in 0usize..3,
        ) {
            let mut text = Vec::new();
            write_trace(&mut text, &records).unwrap();
            for (kind, at, byte) in edits {
                let at = at % (text.len() + 1);
                let next = |b: u8| text[at..].iter().position(|&c| c == b).map(|i| at + i);
                match kind {
                    0 if at < text.len() => text[at] ^= byte.max(1),
                    1 => text.insert(at, byte),
                    2 if at < text.len() => drop(text.remove(at)),
                    3 => {
                        if let Some(i) = next(b'\n') {
                            text.insert(i, b'\r');
                        }
                    }
                    4 => {
                        if let Some(i) = next(b' ') {
                            text.insert(i + 1, b'+');
                        }
                    }
                    _ => {
                        if let Some(i) = next(b' ') {
                            text[i] = b'\t';
                        }
                    }
                }
            }
            let capacity = [3, 7, 8192][capacity];
            let parsed = read_trace(io::BufReader::with_capacity(capacity, &text[..]));
            let expected = read_trace_by_lines(&text[..]);
            prop_assert_eq!(outcome(parsed), outcome(expected));
        }
    }

    /// A writer that counts the calls it gets.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Record sets that straddle one or two block edges are written
        /// byte for byte as `writeln!` writes them, in whole blocks: at most
        /// ⌈bytes / 64 KiB⌉ writes.
        #[test]
        fn blocks_are_whole_and_byte_identical(records in limit_records(1200..5000)) {
            let mut counted = CountingWriter::default();
            write_trace(&mut counted, &records).unwrap();
            let mut reference = Vec::new();
            write_trace_by_writeln(&mut reference, &records).unwrap();
            prop_assert_eq!(&counted.bytes, &reference);
            prop_assert!(
                counted.writes <= reference.len().div_ceil(BLOCK),
                "{} writes for {} bytes", counted.writes, reference.len()
            );
        }
    }

    #[test]
    fn a_trace_of_exactly_one_block_is_one_write() {
        // The 55-byte header, 6 547 ten-byte `D` lines and one eleven-byte
        // `RQ` line: 65 536 bytes.
        let record = |class| TraceRecord {
            cycle: 0,
            src: NodeId::new(0),
            dst: NodeId::new(0),
            len: 1,
            class,
        };
        let mut records = vec![record(PacketClass::Data); 6_547];
        records.push(record(PacketClass::ReadRequest));
        let mut counted = CountingWriter::default();
        write_trace(&mut counted, &records).unwrap();
        assert_eq!((counted.bytes.len(), counted.writes), (BLOCK, 1));
        assert_eq!(read_trace(&counted.bytes[..]).unwrap(), records);
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
            // Twenty digits, one past `u64::MAX`: the checked second sum.
            (b"18446744073709551616 1 2 1 D\n", 1, "bad cycle"),
        ] {
            match read_trace(text) {
                Err(TraceError::Parse { line: at, message }) => {
                    assert_eq!(at, line, "{message}");
                    assert!(message.contains(field), "{message}");
                }
                other => panic!("{:?} parsed as {other:?}", String::from_utf8_lossy(text)),
            }
        }
        // The limits themselves are legal, leading zeros too.
        let edge = b"18446744073709551615 4294967295 0 65535 C\n000018446744073709551615 0 0 1 D";
        let parsed = read_trace(&edge[..]).unwrap();
        assert_eq!((parsed[0].cycle, parsed[0].len), (u64::MAX, u16::MAX));
        assert_eq!(parsed[0].src.index(), u32::MAX as usize);
        assert_eq!(parsed[1].cycle, u64::MAX);
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
