//! Compact record/replay traces: a streaming, seekable binary format
//! for production-scale runs (DESIGN.md §18).
//!
//! Where `--timeseries-out` and the JSON reports aggregate, a recorded
//! trace keeps every *offered invocation* — arrival instant, function,
//! batch items, tenant, admission verdict, dispatch decision, and the
//! priced queue/reconfig/compute components — so a later `analyze plan`
//! can replay the exact same traffic against counterfactual fleets.
//! JSON would cost hundreds of bytes per invocation; this format costs a
//! handful: arrivals are delta-encoded LEB128 varints and everything
//! else is a varint or a packed flag byte, so a million-invocation day
//! fits in a few megabytes.
//!
//! # Wire layout
//!
//! ```text
//! [magic "NBTRACE1"] [header] [record]* [footer] [footer_off u64 LE] [fnv64 u64 LE]
//! ```
//!
//! - **Header** — run configuration: seed, load factor, arrival-process
//!   spec, tenant policy, fleet shape (boards × slots), routing policy,
//!   reconfiguration latency, shed horizon, and the function table
//!   (name + SLO-class code per function). Everything a replay needs to
//!   rebuild the run without the generator.
//! - **Records** — one per offered invocation, tagged `0x01`, arrival
//!   delta-encoded against the previous record (arrivals are monotone).
//!   The verdict and warm/cold flag pack into one byte; admitted records
//!   carry the routed board and the priced queue-wait/work components,
//!   shed records carry the attribution components of the shed
//!   explanation instead.
//! - **Footer** — tagged `0x02`: record count, outcome summary, a sparse
//!   seek index (every [`INDEX_STRIDE`] records: byte offset + absolute
//!   arrival), and optionally the full JSON report of the recorded run so
//!   the trace is self-validating (`analyze plan` replays the unmodified
//!   config and requires byte-identity against it).
//! - **Trailer** — the footer's byte offset (so readers can jump straight
//!   to the summary without scanning records) and an FNV-1a checksum of
//!   every preceding byte.
//!
//! # Example
//!
//! ```
//! use nimblock_obs::record::{TraceHeader, TraceReader, TraceRecord, TraceWriter, TraceVerdict};
//!
//! let mut header = TraceHeader::serving(7);
//! header.boards = 2;
//! let mut writer = TraceWriter::new(&header);
//! writer.push(&TraceRecord { arrival_micros: 125, ..TraceRecord::default() });
//! let bytes = writer.finish(None);
//! let reader = TraceReader::parse(&bytes).unwrap();
//! assert_eq!(reader.summary().records, 1);
//! assert_eq!(reader.records().next().unwrap().unwrap().arrival_micros, 125);
//! ```

/// Magic bytes opening every recorded trace.
pub const MAGIC: [u8; 8] = *b"NBTRACE1";
/// Format version written by this crate.
pub const VERSION: u64 = 1;
/// A trace of the serving front door: offered invocations with verdicts.
/// The only kind a reader accepts.
pub const KIND_SERVING: u8 = 1;
/// One seek-index entry is emitted every this many records.
pub const INDEX_STRIDE: u64 = 4096;

const TAG_RECORD: u8 = 0x01;
const TAG_FOOTER: u8 = 0x02;
/// Low three bits of the outcome byte hold the verdict code.
const VERDICT_MASK: u8 = 0x07;
/// Bit 3 of the outcome byte is the warm-route flag.
const WARM_BIT: u8 = 0x08;

// ---------------------------------------------------------------------------
// Varint primitives
// ---------------------------------------------------------------------------

/// Appends `value` as an LEB128 varint (7 bits per byte, little-endian).
pub fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes an LEB128 varint from `data` at `*pos`, advancing `*pos`.
pub fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data
            .get(*pos)
            .ok_or_else(|| format!("trace truncated inside varint at byte {}", *pos))?;
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return Err(format!("varint overflows u64 at byte {}", *pos - 1));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

fn put_f64(buf: &mut Vec<u8>, value: f64) {
    buf.extend_from_slice(&value.to_bits().to_le_bytes());
}

fn get_f64(data: &[u8], pos: &mut usize) -> Result<f64, String> {
    let bytes = data
        .get(*pos..*pos + 8)
        .ok_or_else(|| format!("trace truncated inside f64 at byte {}", *pos))?;
    *pos += 8;
    Ok(f64::from_bits(u64::from_le_bytes(bytes.try_into().expect("8-byte slice"))))
}

fn put_str(buf: &mut Vec<u8>, value: &str) {
    put_varint(buf, value.len() as u64);
    buf.extend_from_slice(value.as_bytes());
}

fn get_str(data: &[u8], pos: &mut usize) -> Result<String, String> {
    let len = get_varint(data, pos)? as usize;
    let bytes = data
        .get(*pos..*pos + len)
        .ok_or_else(|| format!("trace truncated inside string at byte {}", *pos))?;
    *pos += len;
    String::from_utf8(bytes.to_vec()).map_err(|_| format!("invalid UTF-8 at byte {}", *pos - len))
}

/// FNV-1a over `data` — the trailer checksum.
fn fnv64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Header / record / summary models
// ---------------------------------------------------------------------------

/// One deployed function in the trace's function table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFunction {
    /// Function (application) name, as deployed in the registry.
    pub name: String,
    /// SLO-class code, strictest first (0 = latency, 1 = standard,
    /// 2 = batch) — the index into `SloClass::ALL`.
    pub class: u8,
}

/// The recorded run's configuration: everything a replay needs to rebuild
/// the serving pipeline without the original generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// [`KIND_SERVING`]; a reader rejects any other kind.
    pub kind: u8,
    /// Seed the recorded run was driven by.
    pub seed: u64,
    /// Load multiplier that was applied to the arrival process.
    pub load_factor: f64,
    /// Invocations the run offered.
    pub invocations: u64,
    /// Arrival-process spec (`kind:rate`), re-parseable by the workload
    /// crate.
    pub process: String,
    /// Number of tenants sharing the cluster.
    pub tenants: u64,
    /// Tenant token-bucket refill rate, per virtual second.
    pub tenant_rate_per_sec: f64,
    /// Tenant token-bucket burst size.
    pub tenant_burst: u64,
    /// Tenant in-flight quota.
    pub tenant_quota: u64,
    /// Boards in the fleet.
    pub boards: u64,
    /// Reconfigurable slots per board.
    pub slots_per_board: u64,
    /// Worker threads of the recorded run (reports are thread-invariant;
    /// kept for provenance only).
    pub threads: u64,
    /// Board-selection policy name (`DispatchPolicy::parse` format).
    pub policy: String,
    /// Nominal partial-reconfiguration latency, microseconds.
    pub reconfig_micros: u64,
    /// Batch items per invocation were drawn from `1..=max_items`.
    pub max_items: u64,
    /// Base backlog shed horizon, microseconds.
    pub shed_horizon_micros: u64,
    /// Serving chunk size (the ingest memory bound).
    pub chunk: u64,
    /// The function table; record `function` fields index into it.
    pub functions: Vec<TraceFunction>,
}

impl TraceHeader {
    /// A serving-kind header with every knob zeroed except the seed —
    /// callers fill in the fleet shape and function table.
    pub fn serving(seed: u64) -> Self {
        TraceHeader {
            kind: KIND_SERVING,
            seed,
            load_factor: 1.0,
            invocations: 0,
            process: String::new(),
            tenants: 0,
            tenant_rate_per_sec: 0.0,
            tenant_burst: 0,
            tenant_quota: 0,
            boards: 1,
            slots_per_board: 1,
            threads: 1,
            policy: String::new(),
            reconfig_micros: 0,
            max_items: 1,
            shed_horizon_micros: 0,
            chunk: 1,
            functions: Vec::new(),
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.kind);
        put_varint(buf, self.seed);
        put_f64(buf, self.load_factor);
        put_varint(buf, self.invocations);
        put_str(buf, &self.process);
        put_varint(buf, self.tenants);
        put_f64(buf, self.tenant_rate_per_sec);
        put_varint(buf, self.tenant_burst);
        put_varint(buf, self.tenant_quota);
        put_varint(buf, self.boards);
        put_varint(buf, self.slots_per_board);
        put_varint(buf, self.threads);
        put_str(buf, &self.policy);
        put_varint(buf, self.reconfig_micros);
        put_varint(buf, self.max_items);
        put_varint(buf, self.shed_horizon_micros);
        put_varint(buf, self.chunk);
        put_varint(buf, self.functions.len() as u64);
        for function in &self.functions {
            put_str(buf, &function.name);
            buf.push(function.class);
        }
    }

    fn decode(data: &[u8], pos: &mut usize) -> Result<Self, String> {
        let kind = *data
            .get(*pos)
            .ok_or_else(|| "trace truncated inside header".to_owned())?;
        *pos += 1;
        if kind != KIND_SERVING {
            return Err(format!("unknown trace kind {kind}"));
        }
        let seed = get_varint(data, pos)?;
        let load_factor = get_f64(data, pos)?;
        let invocations = get_varint(data, pos)?;
        let process = get_str(data, pos)?;
        let tenants = get_varint(data, pos)?;
        let tenant_rate_per_sec = get_f64(data, pos)?;
        let tenant_burst = get_varint(data, pos)?;
        let tenant_quota = get_varint(data, pos)?;
        let boards = get_varint(data, pos)?;
        let slots_per_board = get_varint(data, pos)?;
        let threads = get_varint(data, pos)?;
        let policy = get_str(data, pos)?;
        let reconfig_micros = get_varint(data, pos)?;
        let max_items = get_varint(data, pos)?;
        let shed_horizon_micros = get_varint(data, pos)?;
        let chunk = get_varint(data, pos)?;
        let count = get_varint(data, pos)? as usize;
        let mut functions = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let name = get_str(data, pos)?;
            let class = *data
                .get(*pos)
                .ok_or_else(|| "trace truncated inside function table".to_owned())?;
            *pos += 1;
            functions.push(TraceFunction { name, class });
        }
        Ok(TraceHeader {
            kind,
            seed,
            load_factor,
            invocations,
            process,
            tenants,
            tenant_rate_per_sec,
            tenant_burst,
            tenant_quota,
            boards,
            slots_per_board,
            threads,
            policy,
            reconfig_micros,
            max_items,
            shed_horizon_micros,
            chunk,
            functions,
        })
    }
}

/// Admission outcome of one offered invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceVerdict {
    /// Admitted, routed, and served.
    #[default]
    Admit,
    /// Rejected by the tenant's token-bucket rate limit.
    RejectRate,
    /// Rejected by the tenant's in-flight quota.
    RejectQuota,
    /// Shed by the class-weighted backlog horizon.
    ShedBacklog,
    /// Shed by deadline infeasibility.
    ShedDeadline,
}

impl TraceVerdict {
    /// Wire code of the verdict (low bits of the outcome byte).
    pub fn code(self) -> u8 {
        match self {
            TraceVerdict::Admit => 0,
            TraceVerdict::RejectRate => 1,
            TraceVerdict::RejectQuota => 2,
            TraceVerdict::ShedBacklog => 3,
            TraceVerdict::ShedDeadline => 4,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Result<Self, String> {
        match code {
            0 => Ok(TraceVerdict::Admit),
            1 => Ok(TraceVerdict::RejectRate),
            2 => Ok(TraceVerdict::RejectQuota),
            3 => Ok(TraceVerdict::ShedBacklog),
            4 => Ok(TraceVerdict::ShedDeadline),
            other => Err(format!("unknown verdict code {other}")),
        }
    }

    /// `true` iff the invocation reached the router — admitted or shed
    /// after a dispatch decision. Routed records carry meaningful
    /// warm/queue-wait/work attribution components; rejections do not.
    pub fn routed(self) -> bool {
        !matches!(self, TraceVerdict::RejectRate | TraceVerdict::RejectQuota)
    }
}

/// One offered invocation. Fields that the verdict renders meaningless
/// (e.g. `board` for a rejection) are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceRecord {
    /// Absolute arrival instant, microseconds of virtual time.
    pub arrival_micros: u64,
    /// Index into the header's function table.
    pub function: u32,
    /// Batch items of the invocation.
    pub items: u32,
    /// Offering tenant.
    pub tenant: u32,
    /// Admission outcome.
    pub verdict: TraceVerdict,
    /// Whether routing found the bitstream warm on the chosen board.
    pub warm: bool,
    /// Routed board (admitted records only).
    pub board: u32,
    /// Predicted queue wait at decision time, microseconds.
    pub queue_wait_micros: u64,
    /// Priced service cost (warm/cold as routed), microseconds.
    pub work_micros: u64,
    /// Reconfiguration share of `work_micros` (shed records carry the
    /// attribution split; admitted cold routes re-derive it from the app
    /// model).
    pub reconfig_micros: u64,
}

/// Footer totals: the integrity cross-check a replay must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Records in the trace (== offered invocations).
    pub records: u64,
    /// Admitted records.
    pub admitted: u64,
    /// Backlog-horizon sheds.
    pub shed_backlog: u64,
    /// Deadline sheds.
    pub shed_deadline: u64,
    /// Rate-limit rejections.
    pub rejected_rate: u64,
    /// Quota rejections.
    pub rejected_quota: u64,
    /// Arrival instant of the last record, microseconds.
    pub last_arrival_micros: u64,
}

/// One sparse seek-index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexEntry {
    /// Record ordinal the entry points at.
    record: u64,
    /// Byte offset of that record's tag within the trace.
    offset: u64,
    /// Absolute arrival of the *previous* record (the delta base).
    prev_arrival: u64,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming trace writer: append records, then [`TraceWriter::finish`].
///
/// The writer keeps O(records / [`INDEX_STRIDE`]) index state plus the
/// output buffer itself; per-record cost is a few varint appends.
#[derive(Debug, Clone)]
pub struct TraceWriter {
    buf: Vec<u8>,
    prev_arrival: u64,
    summary: TraceSummary,
    index: Vec<IndexEntry>,
}

impl TraceWriter {
    /// Opens a trace with `header`.
    pub fn new(header: &TraceHeader) -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC);
        put_varint(&mut buf, VERSION);
        header.encode(&mut buf);
        TraceWriter {
            buf,
            prev_arrival: 0,
            summary: TraceSummary::default(),
            index: Vec::new(),
        }
    }

    /// Appends one offered invocation. Arrivals must be monotone
    /// non-decreasing (virtual time never runs backwards).
    ///
    /// # Panics
    ///
    /// Panics if `record.arrival_micros` precedes the previous record's.
    pub fn push(&mut self, record: &TraceRecord) {
        assert!(
            record.arrival_micros >= self.prev_arrival,
            "arrivals must be monotone ({} after {})",
            record.arrival_micros,
            self.prev_arrival,
        );
        if self.summary.records % INDEX_STRIDE == 0 {
            self.index.push(IndexEntry {
                record: self.summary.records,
                offset: self.buf.len() as u64,
                prev_arrival: self.prev_arrival,
            });
        }
        self.buf.push(TAG_RECORD);
        put_varint(&mut self.buf, record.arrival_micros - self.prev_arrival);
        put_varint(&mut self.buf, u64::from(record.function));
        put_varint(&mut self.buf, u64::from(record.items));
        put_varint(&mut self.buf, u64::from(record.tenant));
        let outcome = record.verdict.code() | if record.warm { WARM_BIT } else { 0 };
        self.buf.push(outcome);
        match record.verdict {
            TraceVerdict::Admit => {
                put_varint(&mut self.buf, u64::from(record.board));
                put_varint(&mut self.buf, record.queue_wait_micros);
                put_varint(&mut self.buf, record.work_micros);
                self.summary.admitted += 1;
            }
            TraceVerdict::ShedBacklog | TraceVerdict::ShedDeadline => {
                put_varint(&mut self.buf, record.queue_wait_micros);
                put_varint(&mut self.buf, record.work_micros);
                put_varint(&mut self.buf, record.reconfig_micros);
                if record.verdict == TraceVerdict::ShedBacklog {
                    self.summary.shed_backlog += 1;
                } else {
                    self.summary.shed_deadline += 1;
                }
            }
            TraceVerdict::RejectRate => self.summary.rejected_rate += 1,
            TraceVerdict::RejectQuota => self.summary.rejected_quota += 1,
        }
        self.prev_arrival = record.arrival_micros;
        self.summary.records += 1;
        self.summary.last_arrival_micros = record.arrival_micros;
    }

    /// Number of records pushed so far.
    pub fn records(&self) -> u64 {
        self.summary.records
    }

    /// Closes the trace: writes the footer (summary, seek index, and the
    /// optional embedded `report_json` of the recorded run), the footer
    /// offset, and the checksum, returning the finished bytes.
    pub fn finish(mut self, report_json: Option<&str>) -> Vec<u8> {
        let footer_offset = self.buf.len() as u64;
        self.buf.push(TAG_FOOTER);
        let summary = self.summary;
        put_varint(&mut self.buf, summary.records);
        put_varint(&mut self.buf, summary.admitted);
        put_varint(&mut self.buf, summary.shed_backlog);
        put_varint(&mut self.buf, summary.shed_deadline);
        put_varint(&mut self.buf, summary.rejected_rate);
        put_varint(&mut self.buf, summary.rejected_quota);
        put_varint(&mut self.buf, summary.last_arrival_micros);
        put_varint(&mut self.buf, self.index.len() as u64);
        let (mut rec, mut off, mut arr) = (0u64, 0u64, 0u64);
        for entry in &self.index {
            put_varint(&mut self.buf, entry.record - rec);
            put_varint(&mut self.buf, entry.offset - off);
            put_varint(&mut self.buf, entry.prev_arrival - arr);
            (rec, off, arr) = (entry.record, entry.offset, entry.prev_arrival);
        }
        put_str(&mut self.buf, report_json.unwrap_or(""));
        self.buf.extend_from_slice(&footer_offset.to_le_bytes());
        let checksum = fnv64(&self.buf);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Zero-copy trace reader: borrows the trace bytes, decodes the header
/// and footer eagerly (the footer offset in the trailer makes that a
/// jump, not a scan), and iterates records lazily.
#[derive(Debug, Clone)]
pub struct TraceReader<'a> {
    data: &'a [u8],
    header: TraceHeader,
    summary: TraceSummary,
    index: Vec<IndexEntry>,
    report_json: Option<&'a str>,
    records_start: usize,
    footer_offset: usize,
}

impl<'a> TraceReader<'a> {
    /// Parses the trace envelope: magic, version, header, checksum, and
    /// footer. Record bytes are validated lazily during iteration.
    pub fn parse(data: &'a [u8]) -> Result<Self, String> {
        if data.len() < MAGIC.len() + 16 {
            return Err(format!("trace too short ({} bytes)", data.len()));
        }
        if data[..MAGIC.len()] != MAGIC {
            return Err("not a recorded trace (bad magic)".to_owned());
        }
        let body_end = data.len() - 8;
        let stored = u64::from_le_bytes(data[body_end..].try_into().expect("8 bytes"));
        let actual = fnv64(&data[..body_end]);
        if stored != actual {
            return Err(format!(
                "trace checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
            ));
        }
        let footer_offset =
            u64::from_le_bytes(data[body_end - 8..body_end].try_into().expect("8 bytes")) as usize;
        let mut pos = MAGIC.len();
        let version = get_varint(data, &mut pos)?;
        if version != VERSION {
            return Err(format!("unsupported trace version {version} (expected {VERSION})"));
        }
        let header = TraceHeader::decode(data, &mut pos)?;
        let records_start = pos;
        if footer_offset < records_start || footer_offset >= body_end - 8 {
            return Err(format!("footer offset {footer_offset} out of bounds"));
        }
        let mut pos = footer_offset;
        let tag = data[pos];
        pos += 1;
        if tag != TAG_FOOTER {
            return Err(format!("expected footer tag at byte {footer_offset}, found {tag:#04x}"));
        }
        let summary = TraceSummary {
            records: get_varint(data, &mut pos)?,
            admitted: get_varint(data, &mut pos)?,
            shed_backlog: get_varint(data, &mut pos)?,
            shed_deadline: get_varint(data, &mut pos)?,
            rejected_rate: get_varint(data, &mut pos)?,
            rejected_quota: get_varint(data, &mut pos)?,
            last_arrival_micros: get_varint(data, &mut pos)?,
        };
        let entries = get_varint(data, &mut pos)? as usize;
        let mut index = Vec::with_capacity(entries.min(1 << 20));
        let (mut rec, mut off, mut arr) = (0u64, 0u64, 0u64);
        for _ in 0..entries {
            rec += get_varint(data, &mut pos)?;
            off += get_varint(data, &mut pos)?;
            arr += get_varint(data, &mut pos)?;
            index.push(IndexEntry { record: rec, offset: off, prev_arrival: arr });
        }
        let report_len = get_varint(data, &mut pos)? as usize;
        let report_bytes = data
            .get(pos..pos + report_len)
            .ok_or_else(|| "trace truncated inside embedded report".to_owned())?;
        let report_json = if report_len == 0 {
            None
        } else {
            Some(
                std::str::from_utf8(report_bytes)
                    .map_err(|_| "embedded report is not UTF-8".to_owned())?,
            )
        };
        Ok(TraceReader {
            data,
            header,
            summary,
            index,
            report_json,
            records_start,
            footer_offset,
        })
    }

    /// The recorded run's configuration.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The footer totals.
    pub fn summary(&self) -> TraceSummary {
        self.summary
    }

    /// The full JSON report embedded by the recorder, if any.
    pub fn report_json(&self) -> Option<&'a str> {
        self.report_json
    }

    /// Iterates every record from the start.
    pub fn records(&self) -> RecordIter<'a> {
        RecordIter {
            data: self.data,
            pos: self.records_start,
            end: self.footer_offset,
            prev_arrival: 0,
            remaining: self.summary.records,
        }
    }

    /// Seeks to record ordinal `start` via the sparse index: decoding
    /// resumes at the nearest indexed record at or before `start` and
    /// skips forward, so a seek costs at most [`INDEX_STRIDE`] record
    /// decodes instead of a scan from the beginning.
    pub fn seek(&self, start: u64) -> RecordIter<'a> {
        let entry = self
            .index
            .iter()
            .rev()
            .find(|entry| entry.record <= start)
            .copied()
            .unwrap_or(IndexEntry { record: 0, offset: self.records_start as u64, prev_arrival: 0 });
        let mut iter = RecordIter {
            data: self.data,
            pos: entry.offset as usize,
            end: self.footer_offset,
            prev_arrival: entry.prev_arrival,
            remaining: self.summary.records.saturating_sub(entry.record),
        };
        for _ in entry.record..start.min(self.summary.records) {
            if iter.next().is_none() {
                break;
            }
        }
        iter
    }
}

/// Lazy record iterator over a trace's record section.
#[derive(Debug, Clone)]
pub struct RecordIter<'a> {
    data: &'a [u8],
    pos: usize,
    end: usize,
    prev_arrival: u64,
    remaining: u64,
}

impl RecordIter<'_> {
    fn decode(&mut self) -> Result<TraceRecord, String> {
        let data = self.data;
        let pos = &mut self.pos;
        let tag = *data
            .get(*pos)
            .ok_or_else(|| "trace truncated before record tag".to_owned())?;
        *pos += 1;
        if tag != TAG_RECORD {
            return Err(format!("expected record tag, found {tag:#04x} at byte {}", *pos - 1));
        }
        let arrival_micros = self.prev_arrival + get_varint(data, pos)?;
        let function = get_varint(data, pos)? as u32;
        let items = get_varint(data, pos)? as u32;
        let tenant = get_varint(data, pos)? as u32;
        let outcome = *data
            .get(*pos)
            .ok_or_else(|| "trace truncated inside record".to_owned())?;
        *pos += 1;
        let verdict = TraceVerdict::from_code(outcome & VERDICT_MASK)?;
        let warm = outcome & WARM_BIT != 0;
        let mut record = TraceRecord {
            arrival_micros,
            function,
            items,
            tenant,
            verdict,
            warm,
            ..TraceRecord::default()
        };
        match verdict {
            TraceVerdict::Admit => {
                record.board = get_varint(data, pos)? as u32;
                record.queue_wait_micros = get_varint(data, pos)?;
                record.work_micros = get_varint(data, pos)?;
            }
            TraceVerdict::ShedBacklog | TraceVerdict::ShedDeadline => {
                record.queue_wait_micros = get_varint(data, pos)?;
                record.work_micros = get_varint(data, pos)?;
                record.reconfig_micros = get_varint(data, pos)?;
            }
            TraceVerdict::RejectRate | TraceVerdict::RejectQuota => {}
        }
        self.prev_arrival = arrival_micros;
        Ok(record)
    }
}

impl Iterator for RecordIter<'_> {
    type Item = Result<TraceRecord, String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 || self.pos >= self.end {
            return None;
        }
        self.remaining -= 1;
        match self.decode() {
            Ok(record) => Some(Ok(record)),
            Err(error) => {
                // Poison the iterator: a decode error is not recoverable
                // mid-stream.
                self.remaining = 0;
                Some(Err(error))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> TraceHeader {
        let mut header = TraceHeader::serving(11);
        header.load_factor = 1.5;
        header.invocations = 3;
        header.process = "bursty:2000".to_owned();
        header.tenants = 4;
        header.tenant_rate_per_sec = 300.0;
        header.tenant_burst = 32;
        header.tenant_quota = 64;
        header.boards = 4;
        header.slots_per_board = 3;
        header.policy = "cache-aware".to_owned();
        header.reconfig_micros = 80_000;
        header.max_items = 4;
        header.shed_horizon_micros = 200_000;
        header.chunk = 65_536;
        header.functions = vec![
            TraceFunction { name: "alexnet".to_owned(), class: 1 },
            TraceFunction { name: "lenet".to_owned(), class: 0 },
        ];
        header
    }

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                arrival_micros: 100,
                function: 1,
                items: 2,
                tenant: 3,
                verdict: TraceVerdict::Admit,
                warm: true,
                board: 2,
                queue_wait_micros: 50,
                work_micros: 400_000,
                ..TraceRecord::default()
            },
            TraceRecord {
                arrival_micros: 250,
                function: 0,
                items: 4,
                tenant: 0,
                verdict: TraceVerdict::ShedBacklog,
                queue_wait_micros: 900_000,
                work_micros: 480_000,
                reconfig_micros: 80_000,
                ..TraceRecord::default()
            },
            TraceRecord {
                arrival_micros: 250,
                function: 0,
                items: 1,
                tenant: 1,
                verdict: TraceVerdict::RejectRate,
                ..TraceRecord::default()
            },
        ]
    }

    fn sample_trace(report: Option<&str>) -> Vec<u8> {
        let mut writer = TraceWriter::new(&sample_header());
        for record in sample_records() {
            writer.push(&record);
        }
        writer.finish(report)
    }

    #[test]
    fn round_trips_header_records_and_summary() {
        let bytes = sample_trace(Some("{\"ok\":true}"));
        let reader = TraceReader::parse(&bytes).expect("parses");
        assert_eq!(reader.header(), &sample_header());
        assert_eq!(reader.report_json(), Some("{\"ok\":true}"));
        let summary = reader.summary();
        assert_eq!(summary.records, 3);
        assert_eq!(summary.admitted, 1);
        assert_eq!(summary.shed_backlog, 1);
        assert_eq!(summary.rejected_rate, 1);
        assert_eq!(summary.last_arrival_micros, 250);
        let decoded: Vec<TraceRecord> =
            reader.records().collect::<Result<_, _>>().expect("decodes");
        assert_eq!(decoded, sample_records());
    }

    #[test]
    fn compactness_beats_json_by_an_order_of_magnitude() {
        let mut writer = TraceWriter::new(&sample_header());
        let mut arrival = 0;
        for i in 0..10_000u64 {
            arrival += 1_000 + i % 97;
            writer.push(&TraceRecord {
                arrival_micros: arrival,
                function: (i % 6) as u32,
                items: (i % 4 + 1) as u32,
                tenant: (i % 4) as u32,
                verdict: TraceVerdict::Admit,
                warm: i % 3 == 0,
                board: (i % 4) as u32,
                queue_wait_micros: i * 13 % 100_000,
                work_micros: 400_000 + i % 7_000,
                ..TraceRecord::default()
            });
        }
        let bytes = writer.finish(None);
        let per_record = bytes.len() as f64 / 10_000.0;
        assert!(
            per_record < 16.0,
            "expected < 16 bytes/record, got {per_record:.1}"
        );
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample_trace(None);
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0xff;
        let error = TraceReader::parse(&bytes).expect_err("corruption must fail");
        assert!(error.contains("checksum"), "{error}");
    }

    #[test]
    fn truncation_and_bad_magic_are_rejected() {
        let bytes = sample_trace(None);
        assert!(TraceReader::parse(&bytes[..10]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        let error = TraceReader::parse(&bad).expect_err("bad magic must fail");
        assert!(error.contains("magic"), "{error}");
    }

    #[test]
    fn seek_lands_on_the_requested_record() {
        let mut writer = TraceWriter::new(&sample_header());
        let total = 3 * INDEX_STRIDE + 17;
        for i in 0..total {
            writer.push(&TraceRecord {
                arrival_micros: i * 10,
                function: (i % 2) as u32,
                verdict: TraceVerdict::RejectRate,
                ..TraceRecord::default()
            });
        }
        let bytes = writer.finish(None);
        let reader = TraceReader::parse(&bytes).expect("parses");
        for start in [0, 1, INDEX_STRIDE - 1, INDEX_STRIDE, 2 * INDEX_STRIDE + 5, total - 1] {
            let record = reader
                .seek(start)
                .next()
                .expect("in range")
                .expect("decodes");
            assert_eq!(record.arrival_micros, start * 10, "seek({start})");
        }
        assert!(reader.seek(total).next().is_none(), "past-the-end seek is empty");
        // A full iteration from a seek point sees exactly the tail.
        let tail: Vec<_> = reader.seek(total - 3).collect();
        assert_eq!(tail.len(), 3);
    }

    #[test]
    fn monotonicity_is_enforced() {
        let mut writer = TraceWriter::new(&sample_header());
        writer.push(&TraceRecord { arrival_micros: 100, ..TraceRecord::default() });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            writer.push(&TraceRecord { arrival_micros: 99, ..TraceRecord::default() });
        }));
        assert!(result.is_err(), "backwards arrival must panic");
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = TraceWriter::new(&sample_header()).finish(None);
        let reader = TraceReader::parse(&bytes).expect("parses");
        assert_eq!(reader.summary().records, 0);
        assert!(reader.records().next().is_none());
        assert!(reader.report_json().is_none());
    }
}
