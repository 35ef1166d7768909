//! The crash-safe run journal: a write-ahead log of full training state.
//!
//! A training run spends its budget in chip queries; a crash that loses the
//! optimizer state throws that spend away. The journal makes stage-2
//! training durable: after every epoch the trainer appends one framed,
//! checksummed record carrying the complete [`RunState`] (theta, optimizer
//! internals, query ledger, recovery bookkeeping) plus that epoch's
//! [`EpochRecord`]. On startup, [`RunJournal::replay`] walks the log,
//! truncates any torn tail left by a kill mid-append, and returns the last
//! consistent epoch — from which [`Trainer::resume`](crate::Trainer::resume)
//! continues bitwise-identically to an uninterrupted run.
//!
//! Records hold no wall-clock time, so a run's journal is a pure function
//! of `(method, config, root seed)`: two runs of the same spec, killed or
//! not, at any worker-pool size, write byte-identical files. Elapsed time
//! belongs to the trace (`TraceEvent::EpochSpan::wall_secs`).
//!
//! # Record framing
//!
//! [`RecordLog`] is the repository's one durable record format; the run
//! journal and the online controller's write-ahead log both sit on it.
//! The file is plain text. Line 1 is the magic header. Every record is
//!
//! ```text
//! record <payload-bytes> <crc32-hex>\n
//! <payload…>
//! ```
//!
//! appended with a single `write_all` on an `O_APPEND` handle followed by
//! `sync_data`. The CRC covers the payload bytes only. Replay accepts the
//! longest prefix of intact records: a frame line that does not parse, a
//! payload shorter than its declared length, or a checksum mismatch all mark
//! the torn tail, which is truncated in place. The first record says which
//! kind of file it is (a run journal's starts with `run-header`).
//!
//! # RNG discipline
//!
//! No generator state is ever serialized. Each epoch draws from a fresh
//! `StdRng` seeded by [`epoch_seed`]`(root_seed, epoch)` (and the warm start
//! from epoch 0), so the stream position is a pure function of
//! `(root_seed, epoch)` and resume re-derives it exactly. Streams for other
//! purposes (a calibration sweep, an online controller's cycles) come from
//! [`stream_seed`], the same derivation keyed by a purpose tag.

use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::str::SplitWhitespace;

use photon_linalg::random::splitmix64;
use photon_linalg::{RMatrix, RVector};
use photon_opt::{Adam, CmaEs, CmaEsState};
use photon_photonics::ErrorVector;
use photon_trace::{LedgerCounts, QueryCategory};

use crate::metrics::Evaluation;
use crate::trainer::{EpochRecord, Method, RecoveryEvent, RecoveryStats};

const JOURNAL_MAGIC: &str = "photon-zo-journal v2";

/// Computes the CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of
/// `bytes`: the checksum in every [`RecordLog`] frame.
///
/// Slicing-by-8: each step folds eight bytes through eight 256-entry
/// lookup tables built at compile time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = !0;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// The slicing-by-8 tables of [`crc32`]: `CRC_TABLES[0][b]` is the CRC
/// register after shifting byte `b` through, bit by bit, and
/// `CRC_TABLES[i][b]` the register after `b` and then `i` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut i = 1;
    while i < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[i - 1][b];
            t[i][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        i += 1;
    }
    t
}

/// Derives the RNG seed for one stage-2 epoch from the run's root seed.
///
/// Epoch 0 is the warm start's stream; epochs `1..=E` are the fine-tune
/// epochs. Distinct `(root_seed, epoch)` pairs map to statistically
/// independent streams, and the derivation is pure, so a resumed run
/// re-creates each epoch's generator without ever serializing RNG state.
pub fn epoch_seed(root_seed: u64, epoch: usize) -> u64 {
    stream_seed(root_seed, 0, epoch as u64)
}

/// Derives the seed of stream `index` of the purpose tagged `purpose` from
/// a root seed: [`epoch_seed`]`(root_seed ^ purpose, index)`, whose
/// purpose tag is 0. Distinct tags give independent families of streams,
/// so work that must not shift another stream (a calibration sweep before
/// training, say) draws from a tag of its own.
pub fn stream_seed(root_seed: u64, purpose: u64, index: u64) -> u64 {
    splitmix64(root_seed ^ purpose ^ splitmix64(index.wrapping_mul(0xA076_1D64_78BD_642F)))
}

/// Errors raised while writing or replaying a [`RecordLog`] or a run journal.
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// Filesystem failure.
    Io(io::Error),
    /// The journal (or one payload) is not valid. Only raised for damage
    /// that torn-tail truncation cannot repair, e.g. a bad magic header.
    Parse {
        /// What went wrong.
        message: String,
    },
    /// Another live writer holds the journal's advisory lock. A second
    /// appender must fail fast here rather than interleave frames into a
    /// torn WAL.
    Locked {
        /// The journal path (not the lockfile path).
        path: PathBuf,
        /// The holder's process id, when the lockfile recorded one.
        holder: Option<u32>,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o failed: {e}"),
            JournalError::Parse { message } => write!(f, "journal parse error: {message}"),
            JournalError::Locked { path, holder } => match holder {
                Some(pid) => write!(
                    f,
                    "journal {} is locked by another writer (pid {pid})",
                    path.display()
                ),
                None => write!(f, "journal {} is locked by another writer", path.display()),
            },
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Parse { .. } | JournalError::Locked { .. } => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

fn perr(message: impl Into<String>) -> JournalError {
    JournalError::Parse {
        message: message.into(),
    }
}

/// Advisory single-writer lock on a journal path.
///
/// A sibling `<journal>.lock` file is created with `O_EXCL` and records the
/// owning process id. A second writer on the same path — another
/// [`RecordLog::create`] or [`RecordLog::open_append`] while the first
/// handle is live — fails fast with [`JournalError::Locked`] instead of
/// interleaving appends into a torn WAL. A lock left behind by a SIGKILLed
/// process (the chaos gate does exactly this) is detected as stale — its
/// pid no longer exists — and reclaimed, so crash-resume needs no manual
/// cleanup. [`RecordLog::replay`] stays lock-free: it only read-repairs,
/// and resume acquires the writer lock immediately afterwards.
#[derive(Debug)]
struct JournalLock {
    path: PathBuf,
}

fn lock_path(journal_path: &Path) -> PathBuf {
    let mut os = journal_path.as_os_str().to_os_string();
    os.push(".lock");
    PathBuf::from(os)
}

fn process_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    #[cfg(target_os = "linux")]
    {
        process_alive_under(Path::new("/proc"), pid)
    }
    #[cfg(not(target_os = "linux"))]
    {
        // No portable liveness probe: treat any recorded holder as live
        // (fail-safe; a genuinely stale lock then needs manual removal).
        true
    }
}

/// Procfs-based liveness probe, parameterized on the procfs root so the
/// no-`/proc` branch is unit-testable on any host.
///
/// When the procfs root itself is absent — minimal containers and chroots
/// routinely run without `/proc` mounted — there is no liveness signal at
/// all, and `join(pid).exists()` would report *every* pid dead. That way
/// lies misreclaiming a live writer's lock and interleaving two WALs, so
/// the absence of procfs degrades to "holder is live": the lock stays held
/// and a genuinely stale one needs manual removal, which is the safe
/// failure direction.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn process_alive_under(proc_root: &Path, pid: u32) -> bool {
    if !proc_root.is_dir() {
        return true;
    }
    proc_root.join(pid.to_string()).exists()
}

impl JournalLock {
    fn acquire(journal_path: &Path) -> Result<Self, JournalError> {
        let path = lock_path(journal_path);
        // Two passes: the first may reclaim one stale lock, the second must
        // then win `create_new` outright or report the (live) holder.
        for _ in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    let _ = f.sync_data();
                    return Ok(JournalLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if !process_alive(pid) => {
                            // Stale: the holder died without releasing.
                            // Reclaim and retry; two racers can both see
                            // staleness, but `create_new` admits only one.
                            let _ = fs::remove_file(&path);
                            continue;
                        }
                        _ => {
                            return Err(JournalError::Locked {
                                path: journal_path.to_path_buf(),
                                holder,
                            });
                        }
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(JournalError::Locked {
            path: journal_path.to_path_buf(),
            holder: None,
        })
    }
}

impl Drop for JournalLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// The run identity written as the journal's first record. Resume refuses a
/// journal whose header contradicts the caller's configuration: the
/// determinism contract only holds for the original `(method, root seed,
/// batch size, probe count)`.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// The stage-2 training method.
    pub method: Method,
    /// Root seed all per-epoch RNG streams derive from.
    pub root_seed: u64,
    /// Stage-2 epochs the run was started with (informational).
    pub epochs: usize,
    /// Mini-batch size (affects the per-epoch shuffle stream).
    pub batch_size: usize,
    /// Probe count per ZO estimate (affects the probe stream).
    pub q: usize,
}

/// The complete loop-carried state of stage-2 training: the trainer's live
/// state, which it also journals at every epoch boundary. One `RunState`
/// plus the epoch's [`EpochRecord`] make up each journal record; restoring
/// it (plus re-deriving the next epoch's RNG) resumes the run
/// bitwise-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct RunState {
    /// Last completed stage-2 epoch (1-based).
    pub epoch: usize,
    /// Global optimizer-iteration counter (serial chip control points).
    pub iteration: usize,
    /// Rotation offset of coordinate-wise ZO probes.
    pub coord_offset: usize,
    /// Divergence-guard rollbacks consumed so far.
    pub rollbacks_used: usize,
    /// Divergence-guard EMA of the base loss.
    pub loss_ema: Option<f64>,
    /// Cumulative evaluation-side chip queries.
    pub eval_queries: u64,
    /// Cumulative per-category query ledger.
    pub ledger: LedgerCounts,
    /// Cumulative recovery-action totals.
    pub recovery: RecoveryStats,
    /// Current parameters.
    pub theta: RVector,
    /// The Adam optimizer.
    pub adam: Adam,
    /// The CMA-ES optimizer, when the method is CMA.
    pub cma: Option<CmaEs>,
    /// The divergence guard's last good `(θ, optimizer)` snapshot.
    pub rollback_snapshot: Option<RollbackSnapshot>,
    /// Error assignment of an *adopted* auto-recalibration, when one
    /// occurred. Resume rebuilds the replacement metric model from it.
    pub metric_errors: Option<ErrorVector>,
    /// Structured recovery events so far, in order.
    pub recovery_events: Vec<RecoveryEvent>,
}

/// The divergence guard's rollback target, part of [`RunState`].
#[derive(Debug, Clone, PartialEq)]
pub struct RollbackSnapshot {
    /// Last good parameters.
    pub theta: RVector,
    /// The optimizer at that point.
    pub adam: Adam,
    /// The CMA-ES optimizer at that point, when the method is CMA.
    pub cma: Option<CmaEs>,
}

/// One journal record: the full state at an epoch boundary plus that
/// epoch's bookkeeping line.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochEntry {
    /// Full loop-carried state after the epoch.
    pub state: RunState,
    /// The epoch's [`EpochRecord`] (what `TrainOutcome::history` collects).
    pub record: EpochRecord,
}

/// The result of replaying a journal from disk.
#[derive(Debug)]
pub struct Replay {
    /// The run identity record.
    pub header: JournalHeader,
    /// All intact epoch entries, in epoch order.
    pub entries: Vec<EpochEntry>,
    /// Bytes of torn tail that were truncated away (0 for a clean log).
    pub truncated_bytes: u64,
}

/// An append-only, crash-safe log of text records.
///
/// This is the repository's one durable record format (see the module
/// docs for the framing): [`RunJournal`] keeps stage-2 training state in
/// one, and the online recalibration controller keeps its committed
/// cycles in another. Each handle holds the path's single-writer lock for
/// its lifetime. The log does not interpret payloads; by convention the
/// first record says which kind of file it is.
#[derive(Debug)]
pub struct RecordLog {
    file: fs::File,
    records: u64,
    /// Held for the lifetime of the handle; releasing (via drop) lets the
    /// next writer — e.g. a resume on another farm worker — take over.
    _lock: JournalLock,
}

impl RecordLog {
    /// Creates (truncating any previous file) a log at `path` holding the
    /// magic line and `first` as its first record, durably: the record is
    /// fsynced and so is the parent directory. Missing parent directories
    /// are created first.
    ///
    /// # Errors
    ///
    /// [`JournalError::Locked`] when another live writer holds the path;
    /// [`JournalError::Io`] on filesystem failures (unwritable parent,
    /// path is a directory, …) — typed, never a panic.
    pub fn create(path: &Path, first: &str) -> Result<Self, JournalError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        // Lock before truncating: a second `create` racing a live run must
        // fail fast here, not blank the live log first.
        let lock = JournalLock::acquire(path)?;
        fs::write(path, format!("{JOURNAL_MAGIC}\n"))?;
        let file = fs::OpenOptions::new().append(true).open(path)?;
        let mut log = RecordLog {
            file,
            records: 0,
            _lock: lock,
        };
        log.append(first)?;
        sync_parent_dir(path);
        Ok(log)
    }

    /// Re-opens an existing log for appending. Call [`RecordLog::replay`]
    /// first so the tail is known-consistent.
    ///
    /// # Errors
    ///
    /// [`JournalError::Locked`] when another live writer holds the path;
    /// otherwise propagates I/O failures.
    pub fn open_append(path: &Path) -> Result<Self, JournalError> {
        let lock = JournalLock::acquire(path)?;
        let file = fs::OpenOptions::new().append(true).open(path)?;
        Ok(RecordLog {
            file,
            records: 0,
            _lock: lock,
        })
    }

    /// Records appended through *this handle* (not the whole file).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends one record: a single framed, checksummed, fsynced write, so
    /// a kill at any instant leaves at worst a torn tail that replay
    /// truncates. Returns the bytes written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn append(&mut self, payload: &str) -> Result<u64, JournalError> {
        let frame = format!(
            "record {} {:08x}\n{payload}",
            payload.len(),
            crc32(payload.as_bytes())
        );
        // One write_all on an O_APPEND handle: the kernel appends the chunk
        // at a single offset, so concurrent readers (and a crash) see either
        // nothing or a contiguous (possibly torn) chunk — never interleaving.
        self.file.write_all(frame.as_bytes())?;
        self.file.sync_data()?;
        self.records += 1;
        Ok(frame.len() as u64)
    }

    /// Replays the log at `path`: verifies the magic line, walks the framed
    /// records, and **truncates** any torn tail (incomplete frame, short
    /// payload, or checksum mismatch) in place, fsynced, so subsequent
    /// appends continue from the last intact record. Returns the intact
    /// payloads in order and the number of bytes truncated (0 for a clean
    /// log).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failures; [`JournalError::Parse`]
    /// when the file is not a log of this version (bad or unsupported
    /// magic) — damage that truncation cannot repair.
    pub fn replay(path: &Path) -> Result<(Vec<String>, u64), JournalError> {
        let mut file = fs::OpenOptions::new().read(true).write(true).open(path)?;
        let mut text = String::new();
        file.read_to_string(&mut text)?;

        let magic_end = text
            .find('\n')
            .ok_or_else(|| perr("missing or torn magic header"))?;
        if &text[..magic_end] != JOURNAL_MAGIC {
            let got = &text[..magic_end.min(64)];
            if got.starts_with("photon-zo-journal ") {
                return Err(perr(format!("unsupported journal version {got:?}")));
            }
            return Err(perr(format!("bad journal magic {got:?}")));
        }

        let mut records = Vec::new();
        let mut good_end = magic_end + 1;
        while let Some((payload, next)) = next_record(&text, good_end) {
            records.push(payload.to_owned());
            good_end = next;
        }
        let truncated_bytes = (text.len() - good_end) as u64;
        if truncated_bytes > 0 {
            file.set_len(good_end as u64)?;
            file.sync_data()?;
        }
        Ok((records, truncated_bytes))
    }
}

/// Fsyncs `path`'s parent directory so the file's creation itself survives
/// a crash. Best-effort: some filesystems refuse directory fsync.
fn sync_parent_dir(path: &Path) {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    if let Ok(dir) = fs::File::open(parent) {
        let _ = dir.sync_all();
    }
}

/// Parses one framed record starting at byte `offset`. Returns the payload
/// slice and the offset just past it, or `None` at the end of the text or
/// when the record is torn (malformed frame line, short payload, or
/// checksum mismatch).
fn next_record(text: &str, offset: usize) -> Option<(&str, usize)> {
    let rest = &text[offset..];
    let line_end = rest.find('\n')?;
    let frame = &rest[..line_end];
    let mut it = frame.split_whitespace();
    if it.next() != Some("record") {
        return None;
    }
    let len: usize = it.next()?.parse().ok()?;
    let crc: u32 = u32::from_str_radix(it.next()?, 16).ok()?;
    if it.next().is_some() {
        return None;
    }
    let payload_start = line_end + 1;
    let payload_end = payload_start.checked_add(len)?;
    if payload_end > rest.len() || !rest.is_char_boundary(payload_end) {
        return None;
    }
    let payload = &rest[payload_start..payload_end];
    if crc32(payload.as_bytes()) != crc {
        return None;
    }
    Some((payload, offset + payload_end))
}

/// An append-only handle on a run journal: a [`RecordLog`] whose first
/// record is the [`JournalHeader`] and every later one an [`EpochEntry`].
#[derive(Debug)]
pub struct RunJournal {
    log: RecordLog,
}

impl RunJournal {
    /// Creates (truncating any previous file) a new journal at `path` and
    /// writes the header record durably. Missing parent directories are
    /// created first.
    ///
    /// # Errors
    ///
    /// As [`RecordLog::create`].
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Self, JournalError> {
        Ok(RunJournal {
            log: RecordLog::create(path, &header_payload(header))?,
        })
    }

    /// Re-opens an existing journal for appending. Call
    /// [`RunJournal::replay`] first so the tail is known-consistent.
    ///
    /// # Errors
    ///
    /// As [`RecordLog::open_append`].
    pub fn open_append(path: &Path) -> Result<Self, JournalError> {
        Ok(RunJournal {
            log: RecordLog::open_append(path)?,
        })
    }

    /// Records appended through *this handle* (not the whole file).
    pub fn records(&self) -> u64 {
        self.log.records()
    }

    /// Appends one epoch entry as one [`RecordLog`] record. Returns the
    /// bytes written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn append_epoch(&mut self, entry: &EpochEntry) -> Result<u64, JournalError> {
        self.log.append(&entry_payload(entry))
    }

    /// Replays the journal at `path` through [`RecordLog::replay`] (which
    /// truncates any torn tail) and decodes its records.
    ///
    /// # Errors
    ///
    /// As [`RecordLog::replay`]; also [`JournalError::Parse`] when an
    /// *intact* record fails validation (e.g. epochs out of order) or the
    /// header record is missing.
    pub fn replay(path: &Path) -> Result<Replay, JournalError> {
        let (records, truncated_bytes) = RecordLog::replay(path)?;
        let mut records = records.iter();
        let header = records
            .next()
            .ok_or_else(|| perr("journal has no intact header record"))?;
        let header = parse_header_payload(header)?;
        let mut entries: Vec<EpochEntry> = Vec::new();
        for payload in records {
            let entry = parse_entry_payload(payload)?;
            if let Some(prev) = entries.last() {
                if entry.state.epoch <= prev.state.epoch {
                    return Err(perr(format!(
                        "epochs out of order: {} after {}",
                        entry.state.epoch, prev.state.epoch
                    )));
                }
            }
            entries.push(entry);
        }
        Ok(Replay {
            header,
            entries,
            truncated_bytes,
        })
    }
}

// ---------------------------------------------------------------------------
// Payload serialization. Strict line-oriented `key value…` text: writers and
// parsers are kept adjacent so the format cannot drift.
// ---------------------------------------------------------------------------

fn header_payload(h: &JournalHeader) -> String {
    format!(
        "run-header\nmethod {}\nroot_seed {}\nepochs {}\nbatch_size {}\nq {}\n",
        h.method.encode(),
        h.root_seed,
        h.epochs,
        h.batch_size,
        h.q
    )
}

fn parse_header_payload(payload: &str) -> Result<JournalHeader, JournalError> {
    let mut r = LineReader::new(payload);
    r.expect_line("run-header")?;
    let method_code = r.tagged("method")?;
    let method = Method::decode(method_code)
        .ok_or_else(|| perr(format!("unknown method code {method_code:?}")))?;
    let header = JournalHeader {
        method,
        root_seed: r.parsed("root_seed")?,
        epochs: r.parsed("epochs")?,
        batch_size: r.parsed("batch_size")?,
        q: r.parsed("q")?,
    };
    r.expect_end()?;
    Ok(header)
}

fn entry_payload(entry: &EpochEntry) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("epoch-entry\n");
    write_state(&mut out, &entry.state);
    write_record(&mut out, &entry.record);
    out
}

fn parse_entry_payload(payload: &str) -> Result<EpochEntry, JournalError> {
    let mut r = LineReader::new(payload);
    r.expect_line("epoch-entry")?;
    let state = read_state(&mut r)?;
    let record = read_record(&mut r)?;
    r.expect_end()?;
    Ok(EpochEntry { state, record })
}

fn write_state(out: &mut String, s: &RunState) {
    use fmt::Write;
    let _ = writeln!(out, "epoch {}", s.epoch);
    let _ = writeln!(out, "iteration {}", s.iteration);
    let _ = writeln!(out, "coord_offset {}", s.coord_offset);
    let _ = writeln!(out, "rollbacks_used {}", s.rollbacks_used);
    match s.loss_ema {
        None => out.push_str("loss_ema none\n"),
        Some(v) => {
            let _ = writeln!(out, "loss_ema {v:?}");
        }
    }
    let _ = writeln!(out, "eval_queries {}", s.eval_queries);
    write_recovery(out, "recovery", &s.recovery);
    out.push_str("ledger");
    for cat in QueryCategory::ALL {
        let _ = write!(out, " {}", s.ledger.get(cat));
    }
    out.push('\n');
    write_rvec(out, "theta", &s.theta);
    write_adam(out, &s.adam);
    write_cma(out, s.cma.as_ref());
    match &s.rollback_snapshot {
        None => out.push_str("rollback_snapshot none\n"),
        Some(snap) => {
            out.push_str("rollback_snapshot some\n");
            write_rvec(out, "theta", &snap.theta);
            write_adam(out, &snap.adam);
            write_cma(out, snap.cma.as_ref());
        }
    }
    match &s.metric_errors {
        None => out.push_str("metric_errors none\n"),
        Some(ev) => {
            let _ = write!(
                out,
                "metric_errors {} {}",
                ev.n_beam_splitters(),
                ev.n_phase_shifters()
            );
            for v in ev.to_flat() {
                let _ = write!(out, " {v:?}");
            }
            out.push('\n');
        }
    }
    let _ = writeln!(out, "events {}", s.recovery_events.len());
    for ev in &s.recovery_events {
        match ev {
            RecoveryEvent::Rollback {
                epoch,
                iteration,
                loss,
                threshold,
                new_lr,
            } => {
                let _ = writeln!(
                    out,
                    "event rollback {epoch} {iteration} {loss:?} {threshold:?} {new_lr:?}"
                );
            }
            RecoveryEvent::Recalibration {
                epoch,
                fidelity_before,
                fidelity_after,
                queries,
                adopted,
            } => {
                let _ = writeln!(
                    out,
                    "event recalibration {epoch} {fidelity_before:?} {fidelity_after:?} {queries} {}",
                    u8::from(*adopted)
                );
            }
        }
    }
}

fn read_state(r: &mut LineReader<'_>) -> Result<RunState, JournalError> {
    let epoch = r.parsed("epoch")?;
    let iteration = r.parsed("iteration")?;
    let coord_offset = r.parsed("coord_offset")?;
    let rollbacks_used = r.parsed("rollbacks_used")?;
    let loss_ema = match r.tagged("loss_ema")? {
        "none" => None,
        v => Some(parse_f64(v)?),
    };
    let eval_queries = r.parsed("eval_queries")?;
    let recovery = read_recovery(r, "recovery")?;
    let ledger_line = r.tagged("ledger")?;
    let mut ledger = LedgerCounts::new();
    let counts: Vec<&str> = ledger_line.split_whitespace().collect();
    if counts.len() != QueryCategory::ALL.len() {
        return Err(perr("ledger count mismatch"));
    }
    for (cat, tok) in QueryCategory::ALL.into_iter().zip(counts) {
        ledger.add(cat, tok.parse().map_err(|_| perr("bad ledger count"))?);
    }
    let theta = read_rvec(r, "theta")?;
    let n = theta.len();
    let adam = read_adam(r, n)?;
    let cma = read_cma(r, n)?;
    let rollback_snapshot = match r.tagged("rollback_snapshot")? {
        "none" => None,
        "some" => Some(RollbackSnapshot {
            theta: sized(read_rvec(r, "theta")?, n, "rollback_snapshot theta")?,
            adam: read_adam(r, n)?,
            cma: read_cma(r, n)?,
        }),
        other => return Err(perr(format!("bad rollback_snapshot marker {other:?}"))),
    };
    let metric_errors = match r.tagged("metric_errors")? {
        "none" => None,
        rest => {
            let mut it = rest.split_whitespace();
            let n_bs = count(&mut it, "metric_errors", "bs count")?;
            let n_ps = count(&mut it, "metric_errors", "ps count")?;
            let size = n_ps.checked_mul(2).and_then(|p| p.checked_add(n_bs));
            let flat = values(it, size, "metric_errors")?;
            Some(
                ErrorVector::from_flat(n_bs, n_ps, &flat)
                    .map_err(|e| perr(format!("invalid metric_errors: {e}")))?,
            )
        }
    };
    let n_events: usize = r.parsed("events")?;
    // No capacity from the count: a damaged count must not allocate.
    let mut recovery_events = Vec::new();
    for _ in 0..n_events {
        let line = r.tagged("event")?;
        let toks: Vec<&str> = line.split_whitespace().collect();
        let ev = match toks.as_slice() {
            ["rollback", epoch, iteration, loss, threshold, new_lr] => RecoveryEvent::Rollback {
                epoch: epoch.parse().map_err(|_| perr("bad event epoch"))?,
                iteration: iteration.parse().map_err(|_| perr("bad event iteration"))?,
                loss: parse_f64(loss)?,
                threshold: parse_f64(threshold)?,
                new_lr: parse_f64(new_lr)?,
            },
            ["recalibration", epoch, before, after, queries, adopted] => {
                RecoveryEvent::Recalibration {
                    epoch: epoch.parse().map_err(|_| perr("bad event epoch"))?,
                    fidelity_before: parse_f64(before)?,
                    fidelity_after: parse_f64(after)?,
                    queries: queries.parse().map_err(|_| perr("bad event queries"))?,
                    adopted: match *adopted {
                        "0" => false,
                        "1" => true,
                        _ => return Err(perr("bad event adopted flag")),
                    },
                }
            }
            _ => return Err(perr(format!("unknown recovery event {line:?}"))),
        };
        recovery_events.push(ev);
    }
    Ok(RunState {
        epoch,
        iteration,
        coord_offset,
        rollbacks_used,
        loss_ema,
        eval_queries,
        ledger,
        recovery,
        theta,
        adam,
        cma,
        rollback_snapshot,
        metric_errors,
        recovery_events,
    })
}

fn write_record(out: &mut String, rec: &EpochRecord) {
    use fmt::Write;
    let _ = writeln!(
        out,
        "record_epoch {} {:?} {}",
        rec.epoch, rec.train_loss, rec.training_queries
    );
    match &rec.test {
        None => out.push_str("record_test none\n"),
        Some(ev) => {
            let _ = writeln!(
                out,
                "record_test {:?} {:?} {}",
                ev.accuracy, ev.loss, ev.samples
            );
        }
    }
    write_recovery(out, "record_recovery", &rec.recovery);
}

fn read_record(r: &mut LineReader<'_>) -> Result<EpochRecord, JournalError> {
    let line = r.tagged("record_epoch")?;
    let toks: Vec<&str> = line.split_whitespace().collect();
    let [epoch, train_loss, training_queries] = toks.as_slice() else {
        return Err(perr("bad record_epoch line"));
    };
    let test = match r.tagged("record_test")? {
        "none" => None,
        rest => {
            let t: Vec<&str> = rest.split_whitespace().collect();
            let [accuracy, loss, samples] = t.as_slice() else {
                return Err(perr("bad record_test line"));
            };
            Some(Evaluation {
                accuracy: parse_f64(accuracy)?,
                loss: parse_f64(loss)?,
                samples: samples.parse().map_err(|_| perr("bad test samples"))?,
            })
        }
    };
    Ok(EpochRecord {
        epoch: epoch.parse().map_err(|_| perr("bad record epoch"))?,
        train_loss: parse_f64(train_loss)?,
        test,
        training_queries: training_queries
            .parse()
            .map_err(|_| perr("bad training_queries"))?,
        recovery: read_recovery(r, "record_recovery")?,
    })
}

fn write_recovery(out: &mut String, tag: &str, s: &RecoveryStats) {
    use fmt::Write;
    let _ = writeln!(
        out,
        "{tag} {} {} {} {}",
        s.retries, s.rejected_probes, s.rollbacks, s.recalibrations
    );
}

fn read_recovery(r: &mut LineReader<'_>, tag: &str) -> Result<RecoveryStats, JournalError> {
    let line = r.tagged(tag)?;
    let toks: Vec<&str> = line.split_whitespace().collect();
    let [retries, rejected, rollbacks, recalibs] = toks.as_slice() else {
        return Err(perr(format!("bad {tag} line")));
    };
    let p = |v: &str| {
        v.parse::<u64>()
            .map_err(|_| perr(format!("bad {tag} count")))
    };
    Ok(RecoveryStats {
        retries: p(retries)?,
        rejected_probes: p(rejected)?,
        rollbacks: p(rollbacks)?,
        recalibrations: p(recalibs)?,
    })
}

fn write_rvec(out: &mut String, tag: &str, v: &RVector) {
    use fmt::Write;
    let _ = write!(out, "{tag} {}", v.len());
    for x in v.iter() {
        let _ = write!(out, " {x:?}");
    }
    out.push('\n');
}

fn read_rvec(r: &mut LineReader<'_>, tag: &str) -> Result<RVector, JournalError> {
    parse_rvec(r.tagged(tag)?, tag)
}

fn read_opt_rvec(r: &mut LineReader<'_>, tag: &str) -> Result<Option<RVector>, JournalError> {
    match r.tagged(tag)? {
        "none" => Ok(None),
        line => parse_rvec(line, tag).map(Some),
    }
}

/// Parses the `<len> <value…>` rest of a vector line.
fn parse_rvec(line: &str, tag: &str) -> Result<RVector, JournalError> {
    let mut it = line.split_whitespace();
    let len = count(&mut it, tag, "length")?;
    Ok(RVector::from_vec(values(it, Some(len), tag)?))
}

/// The next token as a count, a parse error naming `tag` and `what`
/// otherwise.
fn count(it: &mut SplitWhitespace<'_>, tag: &str, what: &str) -> Result<usize, JournalError> {
    it.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| perr(format!("bad {tag} {what}")))
}

/// The remaining tokens as exactly `expected` floats; `None` is a declared
/// shape whose size overflows.
fn values(
    it: SplitWhitespace<'_>,
    expected: Option<usize>,
    tag: &str,
) -> Result<Vec<f64>, JournalError> {
    let vals: Vec<f64> = it.map(parse_f64).collect::<Result<_, _>>()?;
    match expected {
        Some(n) if n == vals.len() => Ok(vals),
        Some(n) => Err(perr(format!(
            "{tag} declares {n} values but carries {}",
            vals.len()
        ))),
        None => Err(perr(format!(
            "{tag} declares more values than fit in memory"
        ))),
    }
}

fn write_rmat(out: &mut String, tag: &str, m: &RMatrix) {
    use fmt::Write;
    let _ = write!(out, "{tag} {} {}", m.rows(), m.cols());
    for x in m.as_slice() {
        let _ = write!(out, " {x:?}");
    }
    out.push('\n');
}

fn read_rmat(r: &mut LineReader<'_>, tag: &str) -> Result<RMatrix, JournalError> {
    let mut it = r.tagged(tag)?.split_whitespace();
    let rows = count(&mut it, tag, "rows")?;
    let cols = count(&mut it, tag, "cols")?;
    let vals = values(it, rows.checked_mul(cols), tag)?;
    Ok(RMatrix::from_vec(rows, cols, vals))
}

fn write_adam(out: &mut String, a: &Adam) {
    use fmt::Write;
    let (beta1, beta2) = a.betas();
    let _ = writeln!(
        out,
        "adam {:?} {beta1:?} {beta2:?} {:?} {}",
        a.learning_rate(),
        a.epsilon(),
        a.steps()
    );
    match a.moments() {
        None => out.push_str("adam_m none\nadam_v none\n"),
        Some((m, v)) => {
            write_rvec(out, "adam_m", m);
            write_rvec(out, "adam_v", v);
        }
    }
}

/// Reads an `adam` section into the optimizer of a θ with `n` values.
/// Values `Adam` would panic on are parse errors: out-of-range
/// hyperparameters, one moment without the other, or moments of another
/// length than θ.
fn read_adam(r: &mut LineReader<'_>, n: usize) -> Result<Adam, JournalError> {
    let line = r.tagged("adam")?;
    let toks: Vec<&str> = line.split_whitespace().collect();
    let [lr, beta1, beta2, eps, t] = toks.as_slice() else {
        return Err(perr("bad adam line"));
    };
    let moments = match (read_opt_rvec(r, "adam_m")?, read_opt_rvec(r, "adam_v")?) {
        (None, None) => None,
        (Some(m), Some(v)) => Some((sized(m, n, "adam_m")?, sized(v, n, "adam_v")?)),
        _ => return Err(perr("adam_m and adam_v must both be present or both none")),
    };
    Adam::from_parts(
        parse_f64(lr)?,
        parse_f64(beta1)?,
        parse_f64(beta2)?,
        parse_f64(eps)?,
        moments,
        t.parse().map_err(|_| perr("bad adam t"))?,
    )
    .map_err(|e| perr(format!("invalid adam state: {e}")))
}

/// `v` when it has θ's `n` values, a parse error naming `tag` otherwise.
fn sized(v: RVector, n: usize, tag: &str) -> Result<RVector, JournalError> {
    if v.len() == n {
        Ok(v)
    } else {
        Err(perr(format!(
            "{tag} has {} values but theta has {n}",
            v.len()
        )))
    }
}

/// Writes the `cma` section through the optimizer's [`CmaEsState`] view,
/// which leaves out the constants derived from `(dim, λ)`.
fn write_cma(out: &mut String, cma: Option<&CmaEs>) {
    use fmt::Write;
    let Some(c) = cma.map(CmaEs::snapshot) else {
        out.push_str("cma none\n");
        return;
    };
    let _ = writeln!(
        out,
        "cma {} {:?} {} {}",
        c.lambda, c.sigma, c.generation, c.generations_since_eig
    );
    write_rvec(out, "cma_mean", &c.mean);
    write_rmat(out, "cma_cov", &c.cov);
    write_rvec(out, "cma_pc", &c.pc);
    write_rvec(out, "cma_ps", &c.ps);
    write_rmat(out, "cma_eigvec", &c.eig_vectors);
    write_rvec(out, "cma_eigsqrt", &c.eig_sqrt);
    match &c.best {
        None => out.push_str("cma_best none\n"),
        Some((x, loss)) => {
            let _ = write!(out, "cma_best {loss:?} {}", x.len());
            for v in x.iter() {
                let _ = write!(out, " {v:?}");
            }
            out.push('\n');
        }
    }
}

/// Reads a `cma` section into the optimizer of a θ with `n` values. A
/// population below 2 and shapes that disagree with each other or with θ
/// are parse errors.
fn read_cma(r: &mut LineReader<'_>, n: usize) -> Result<Option<CmaEs>, JournalError> {
    let line = r.tagged("cma")?;
    if line == "none" {
        return Ok(None);
    }
    let toks: Vec<&str> = line.split_whitespace().collect();
    let [lambda, sigma, generation, since_eig] = toks.as_slice() else {
        return Err(perr("bad cma line"));
    };
    let mean = sized(read_rvec(r, "cma_mean")?, n, "cma_mean")?;
    let cov = read_rmat(r, "cma_cov")?;
    let pc = read_rvec(r, "cma_pc")?;
    let ps = read_rvec(r, "cma_ps")?;
    let eig_vectors = read_rmat(r, "cma_eigvec")?;
    let eig_sqrt = read_rvec(r, "cma_eigsqrt")?;
    let best = match r.tagged("cma_best")? {
        "none" => None,
        line => {
            let (loss, x) = line.split_once(' ').ok_or_else(|| perr("bad cma_best"))?;
            Some((parse_rvec(x, "cma_best")?, parse_f64(loss)?))
        }
    };
    let state = CmaEsState {
        lambda: lambda.parse().map_err(|_| perr("bad cma lambda"))?,
        mean,
        sigma: parse_f64(sigma)?,
        cov,
        pc,
        ps,
        eig_vectors,
        eig_sqrt,
        generations_since_eig: since_eig.parse().map_err(|_| perr("bad cma since_eig"))?,
        generation: generation.parse().map_err(|_| perr("bad cma generation"))?,
        best,
    };
    CmaEs::from_state(state)
        .map(Some)
        .map_err(|e| perr(format!("invalid cma state: {e}")))
}

fn parse_f64(s: &str) -> Result<f64, JournalError> {
    s.parse::<f64>()
        .map_err(|_| perr(format!("bad float {s:?}")))
}

/// Sequential line reader over one (CRC-verified) payload.
struct LineReader<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> LineReader<'a> {
    fn new(payload: &'a str) -> Self {
        LineReader {
            lines: payload.lines(),
        }
    }

    fn next_line(&mut self, what: &str) -> Result<&'a str, JournalError> {
        self.lines
            .next()
            .ok_or_else(|| perr(format!("unexpected end of payload, expected {what}")))
    }

    fn expect_line(&mut self, exact: &str) -> Result<(), JournalError> {
        let line = self.next_line(exact)?;
        if line != exact {
            return Err(perr(format!("expected {exact:?}, got {line:?}")));
        }
        Ok(())
    }

    /// The value of the next line, `tag` followed by one token.
    fn parsed<T: std::str::FromStr>(&mut self, tag: &str) -> Result<T, JournalError> {
        self.tagged(tag)?
            .parse()
            .map_err(|_| perr(format!("bad {tag}")))
    }

    /// Next line, which must start with `tag` followed by a space (or be
    /// exactly `tag`); returns the rest.
    fn tagged(&mut self, tag: &str) -> Result<&'a str, JournalError> {
        let line = self.next_line(tag)?;
        if let Some(rest) = line.strip_prefix(tag) {
            if rest.is_empty() {
                return Ok("");
            }
            if let Some(rest) = rest.strip_prefix(' ') {
                return Ok(rest);
            }
        }
        Err(perr(format!("expected `{tag} …`, got {line:?}")))
    }

    fn expect_end(&mut self) -> Result<(), JournalError> {
        match self.lines.next() {
            None => Ok(()),
            Some(line) => Err(perr(format!("unexpected trailing payload line {line:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_trace::QueryCategory;

    fn sample_state(epoch: usize) -> RunState {
        let mut ledger = LedgerCounts::new();
        ledger.add(QueryCategory::Probe, 120 * epoch as u64);
        ledger.add(QueryCategory::BatchLoss, 30 * epoch as u64);
        RunState {
            epoch,
            iteration: 6 * epoch,
            coord_offset: 3,
            rollbacks_used: 1,
            loss_ema: Some(0.731_250_001),
            eval_queries: 40,
            ledger,
            recovery: RecoveryStats {
                retries: 2,
                rejected_probes: 5,
                rollbacks: 1,
                recalibrations: 0,
            },
            theta: RVector::from_slice(&[0.25, -1.5, 3.0e-7, std::f64::consts::PI]),
            adam: Adam::from_parts(
                0.02,
                0.9,
                0.999,
                1e-8,
                Some((
                    RVector::from_slice(&[0.1, 0.2, 0.3, 0.4]),
                    RVector::from_slice(&[1e-4, 2e-4, 3e-4, 4e-4]),
                )),
                42,
            )
            .unwrap(),
            cma: None,
            rollback_snapshot: None,
            metric_errors: None,
            recovery_events: vec![RecoveryEvent::Rollback {
                epoch: 1,
                iteration: 3,
                loss: f64::INFINITY,
                threshold: 2.5,
                new_lr: 0.01,
            }],
        }
    }

    fn sample_entry(epoch: usize) -> EpochEntry {
        EpochEntry {
            state: sample_state(epoch),
            record: EpochRecord {
                epoch,
                train_loss: 0.5 / epoch as f64,
                test: epoch.is_multiple_of(2).then_some(Evaluation {
                    accuracy: 0.75,
                    loss: 0.61,
                    samples: 30,
                }),
                training_queries: 150 * epoch as u64,
                recovery: RecoveryStats::default(),
            },
        }
    }

    fn header() -> JournalHeader {
        JournalHeader {
            method: Method::Lcng {
                model: crate::ModelChoice::Calibrated,
            },
            root_seed: 77,
            epochs: 5,
            batch_size: 16,
            q: 4,
        }
    }

    /// The bit-at-a-time CRC-32 that the tables of [`crc32`] unroll.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_reference() {
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let mut bytes = vec![0u8; 64 * 1024];
        rng.fill_bytes(&mut bytes);
        for len in 0..=64 {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_bitwise(&bytes[..len]),
                "len {len}"
            );
        }
        assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        for _ in 0..16 {
            let start = rng.gen_range(0..bytes.len());
            let end = rng.gen_range(start..bytes.len() + 1);
            let buf = &bytes[start..end];
            assert_eq!(crc32(buf), crc32_bitwise(buf), "{start}..{end}");
        }
    }

    #[test]
    fn epoch_seed_is_stable_and_spread() {
        assert_eq!(epoch_seed(7, 3), epoch_seed(7, 3));
        assert_ne!(epoch_seed(7, 3), epoch_seed(7, 4));
        assert_ne!(epoch_seed(7, 3), epoch_seed(8, 3));
        assert_ne!(epoch_seed(7, 0), epoch_seed(7, 1));
    }

    #[test]
    fn entry_payload_roundtrips_bitwise() {
        for epoch in [1usize, 2] {
            let entry = sample_entry(epoch);
            let payload = entry_payload(&entry);
            let back = parse_entry_payload(&payload).unwrap();
            assert_eq!(back, entry);
        }
    }

    #[test]
    fn entry_payload_roundtrips_cma_and_snapshot() {
        let mut entry = sample_entry(1);
        let es = CmaEs::with_population(&RVector::from_slice(&[1.0, 2.0, 3.0, 4.0]), 0.5, 6);
        entry.state.cma = Some(es.clone());
        entry.state.rollback_snapshot = Some(RollbackSnapshot {
            theta: RVector::from_slice(&[9.0, 8.0, 7.0, 6.0]),
            adam: entry.state.adam.clone(),
            cma: Some(es),
        });
        let back = parse_entry_payload(&entry_payload(&entry)).unwrap();
        assert_eq!(back, entry);
    }

    #[test]
    fn value_count_mismatch_is_parse_error() {
        let payload = entry_payload(&sample_entry(1));
        let short = payload.replacen("\ntheta 4 ", "\ntheta 5 ", 1);
        assert_ne!(short, payload);
        let err = parse_entry_payload(&short).unwrap_err();
        assert!(err.to_string().contains("theta declares 5 values"), "{err}");
    }

    #[test]
    fn out_of_range_values_are_parse_errors() {
        let mut entry = sample_entry(1);
        entry.state.cma = Some(CmaEs::with_population(&entry.state.theta, 0.5, 6));
        let payload = entry_payload(&entry);
        for (from, to, expected) in [
            ("\nadam 0.02 ", "\nadam -0.02 ", "learning rate"),
            ("\nadam 0.02 0.9 ", "\nadam 0.02 1.5 ", "beta1"),
            ("\nadam_m 4 ", "\nadam_m 3 ", "adam_m declares 3 values"),
            ("\nadam_v 4 0.0001 ", "\nadam_v 3 ", "adam_v has 3"),
            (
                "\nadam_v 4 0.0001 0.0002 0.0003 0.0004",
                "\nadam_v none",
                "both be present",
            ),
            ("\ncma 6 ", "\ncma 1 ", "population"),
            ("\ncma_pc 4 0.0 0.0 0.0 0.0", "\ncma_pc 1 0.0", "pc length"),
            (
                "\nevents 1\n",
                "\nevents 18446744073709551615\n",
                "expected `event",
            ),
            (
                "\ncma_cov 4 4 ",
                "\ncma_cov 4294967296 4294967296 ",
                "cma_cov declares more values",
            ),
            (
                "\nmetric_errors none",
                "\nmetric_errors 1 9223372036854775808 0.5",
                "metric_errors declares more values",
            ),
        ] {
            let bad = payload.replacen(from, to, 1);
            assert_ne!(bad, payload, "{from:?} must occur in the payload");
            let err = parse_entry_payload(&bad).unwrap_err().to_string();
            assert!(err.contains(expected), "{from:?} -> {to:?}: {err}");
        }
    }

    #[test]
    fn journal_roundtrip_and_replay() {
        let dir = std::env::temp_dir().join("photon_zo_journal_roundtrip");
        let path = dir.join("run.journal");
        let mut journal = RunJournal::create(&path, &header()).unwrap();
        for epoch in 1..=3 {
            journal.append_epoch(&sample_entry(epoch)).unwrap();
        }
        assert_eq!(journal.records(), 4); // header + 3 epochs
        drop(journal);
        let replay = RunJournal::replay(&path).unwrap();
        assert_eq!(replay.header, header());
        assert_eq!(replay.entries.len(), 3);
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.entries[2], sample_entry(3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = std::env::temp_dir().join("photon_zo_journal_torn");
        let path = dir.join("run.journal");
        let mut journal = RunJournal::create(&path, &header()).unwrap();
        journal.append_epoch(&sample_entry(1)).unwrap();
        journal.append_epoch(&sample_entry(2)).unwrap();
        drop(journal);
        let clean_len = fs::metadata(&path).unwrap().len();
        // Simulate a kill mid-append: half a record frame at the tail.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"record 5000 deadbeef\nepoch-entry\nepoch 3\ntorn...")
            .unwrap();
        drop(f);

        let replay = RunJournal::replay(&path).unwrap();
        assert_eq!(replay.entries.len(), 2);
        assert!(replay.truncated_bytes > 0);
        assert_eq!(fs::metadata(&path).unwrap().len(), clean_len);

        // The log keeps working after recovery.
        let mut journal = RunJournal::open_append(&path).unwrap();
        journal.append_epoch(&sample_entry(3)).unwrap();
        let replay = RunJournal::replay(&path).unwrap();
        assert_eq!(replay.entries.len(), 3);
        assert_eq!(replay.truncated_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_payload_marks_torn_tail() {
        let dir = std::env::temp_dir().join("photon_zo_journal_corrupt");
        let path = dir.join("run.journal");
        let mut journal = RunJournal::create(&path, &header()).unwrap();
        journal.append_epoch(&sample_entry(1)).unwrap();
        journal.append_epoch(&sample_entry(2)).unwrap();
        drop(journal);
        // Flip one byte inside the *last* record's payload.
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let replay = RunJournal::replay(&path).unwrap();
        assert_eq!(replay.entries.len(), 1, "corrupt record must be dropped");
        assert!(replay.truncated_bytes > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_is_parse_error_not_panic() {
        let dir = std::env::temp_dir().join("photon_zo_journal_magic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.journal");
        fs::write(&path, "not a journal\nrecord 1 00000000\nx").unwrap();
        let err = RunJournal::replay(&path).unwrap_err();
        assert!(matches!(err, JournalError::Parse { .. }));
        assert!(err.to_string().contains("magic"));
        // Journals written before `elapsed` left the records (v1) and
        // future versions are refused up front, not mid-parse.
        for magic in ["photon-zo-journal v1", "photon-zo-journal v9"] {
            fs::write(&path, format!("{magic}\nrecord 1 00000000\nx")).unwrap();
            let err = RunJournal::replay(&path).unwrap_err();
            assert!(err.to_string().contains("unsupported journal version"));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_epochs_rejected() {
        let dir = std::env::temp_dir().join("photon_zo_journal_order");
        let path = dir.join("run.journal");
        let mut journal = RunJournal::create(&path, &header()).unwrap();
        journal.append_epoch(&sample_entry(2)).unwrap();
        journal.append_epoch(&sample_entry(1)).unwrap();
        drop(journal);
        let err = RunJournal::replay(&path).unwrap_err();
        assert!(err.to_string().contains("out of order"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_writer_fails_fast_with_locked_error() {
        let dir = std::env::temp_dir().join("photon_zo_journal_lock");
        let path = dir.join("run.journal");
        let journal = RunJournal::create(&path, &header()).unwrap();

        // A second creator must not blank the live WAL…
        let before = fs::read(&path).unwrap();
        let err = RunJournal::create(&path, &header()).unwrap_err();
        assert!(matches!(err, JournalError::Locked { .. }), "{err}");
        assert!(err.to_string().contains("locked"));
        assert_eq!(
            fs::read(&path).unwrap(),
            before,
            "live WAL must be untouched"
        );

        // …and a second appender must fail the same way.
        let err = RunJournal::open_append(&path).unwrap_err();
        assert!(matches!(
            err,
            JournalError::Locked {
                holder: Some(pid), ..
            } if pid == std::process::id()
        ));

        // Dropping the first handle releases the lock.
        drop(journal);
        let _ = RunJournal::open_append(&path).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_from_dead_process_is_reclaimed() {
        let dir = std::env::temp_dir().join("photon_zo_journal_stale_lock");
        let path = dir.join("run.journal");
        let journal = RunJournal::create(&path, &header()).unwrap();
        drop(journal);
        // Forge the lock a SIGKILLed writer would leave behind: an absurdly
        // large pid that cannot name a live process.
        fs::write(lock_path(&path), "4194304999").unwrap();
        let journal = RunJournal::open_append(&path).expect("stale lock must be reclaimed");
        drop(journal);
        assert!(!lock_path(&path).exists(), "lock released on drop");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_procfs_treats_holder_as_live() {
        // Hosts without /proc mounted (minimal containers, chroots) have no
        // liveness signal; the probe must fail safe to "live" instead of
        // declaring every pid dead and misreclaiming a live writer's lock.
        let dir = std::env::temp_dir().join("photon_zo_journal_no_procfs");
        let _ = fs::remove_dir_all(&dir);
        let absent_proc = dir.join("proc");
        assert!(process_alive_under(&absent_proc, 1), "no procfs → live");
        assert!(
            process_alive_under(&absent_proc, 4194304999),
            "even an absurd pid must read as live without procfs"
        );

        // With a procfs root present, the per-pid lookup decides.
        fs::create_dir_all(absent_proc.join("42")).unwrap();
        assert!(process_alive_under(&dir.join("proc"), 42));
        assert!(!process_alive_under(&dir.join("proc"), 43));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparseable_lockfile_is_treated_as_live() {
        let dir = std::env::temp_dir().join("photon_zo_journal_garbage_lock");
        let path = dir.join("run.journal");
        let journal = RunJournal::create(&path, &header()).unwrap();
        drop(journal);
        // A lockfile whose holder cannot be identified must fail safe.
        fs::write(lock_path(&path), "not-a-pid").unwrap();
        let err = RunJournal::open_append(&path).unwrap_err();
        assert!(matches!(err, JournalError::Locked { holder: None, .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_makes_missing_parent_directories() {
        let dir = std::env::temp_dir().join("photon_zo_journal_parents");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("deeply/nested/run.journal");
        let mut journal = RunJournal::create(&path, &header()).unwrap();
        journal.append_epoch(&sample_entry(1)).unwrap();
        drop(journal);
        assert_eq!(RunJournal::replay(&path).unwrap().entries.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_path_is_typed_io_error_not_panic() {
        let dir = std::env::temp_dir().join("photon_zo_journal_unwritable");
        fs::create_dir_all(&dir).unwrap();
        // The "parent directory" is actually a file, so neither the dir
        // creation nor the journal write can succeed.
        let blocker = dir.join("blocker");
        fs::write(&blocker, "i am a file").unwrap();
        let err = RunJournal::create(&blocker.join("run.journal"), &header()).unwrap_err();
        assert!(matches!(err, JournalError::Io(_)), "{err}");
        let err = RunJournal::replay(&dir.join("missing.journal")).unwrap_err();
        assert!(matches!(err, JournalError::Io(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
