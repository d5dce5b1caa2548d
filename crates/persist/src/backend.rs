//! The durable backend — our stand-in for the "commercial database" the
//! paper's MMOs checkpoint into.
//!
//! A directory-based store with atomic snapshot installation (write to a
//! temp file, then rename) and an append-only event log. Crash injection
//! is built in: [`Backend::crash`] drops everything that was not yet
//! flushed, exactly what power loss does to page caches — the recovery
//! experiments (E9) rely on it.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use bytes::Bytes;

/// Errors from the backend.
#[derive(Debug)]
pub enum BackendError {
    Io(std::io::Error),
    NoSnapshot,
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Io(e) => write!(f, "io error: {e}"),
            BackendError::NoSnapshot => write!(f, "no snapshot in backend"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<std::io::Error> for BackendError {
    fn from(e: std::io::Error) -> Self {
        BackendError::Io(e)
    }
}

/// How a scheduled crash corrupts the durable log write it lands in —
/// the failure modes the crash-point sweep ([`crate::crashpoint`])
/// drives through every byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The append tears at the scheduled byte: a prefix of the record
    /// reaches the platter, nothing after it does.
    Torn,
    /// The append completes its record but one bit at the scheduled
    /// byte is flipped — the half-written-sector garbage a power cut
    /// leaves behind.
    BitFlip {
        /// Which bit of the byte flips (0–7).
        bit: u8,
    },
    /// The append is retried after a timeout and lands twice — the
    /// checksum-valid duplicated tail of an at-least-once appender.
    DuplicatedTail,
}

/// A directory-backed durable store with crash injection.
#[derive(Debug)]
pub struct Backend {
    dir: PathBuf,
    /// writes buffered since the last flush (crash discards these)
    unflushed: Vec<PendingWrite>,
    /// scheduled log fault: `(byte offset into the durable log, kind)`
    log_fault: Option<(u64, FaultKind)>,
    /// a scheduled fault fired: all subsequent writes vanish until
    /// [`Backend::crash`] acknowledges the crash
    crashed: bool,
    /// total bytes durably written (the DB-load metric of E9)
    pub bytes_written: u64,
    /// snapshots durably installed
    pub snapshots_written: u64,
}

#[derive(Debug)]
enum PendingWrite {
    Snapshot { seq: u64, data: Bytes },
    LogAppend { data: Vec<u8> },
    LogReplace { data: Vec<u8> },
}

impl Backend {
    /// Open (or create) a backend in `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, BackendError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(Backend {
            dir,
            unflushed: Vec::new(),
            log_fault: None,
            crashed: false,
            bytes_written: 0,
            snapshots_written: 0,
        })
    }

    /// Schedule a crash on the durable log write containing byte
    /// `offset` (0-based, counted over the whole log's lifetime). When
    /// an append crosses that byte, the fault corrupts it as `kind`
    /// dictates and the backend stops accepting writes — exactly a
    /// machine dying mid-I/O — until [`Backend::crash`] acknowledges
    /// the crash and recovery begins.
    pub fn schedule_log_fault(&mut self, offset: u64, kind: FaultKind) {
        self.log_fault = Some((offset, kind));
    }

    /// True once a scheduled fault has fired.
    pub fn fault_fired(&self) -> bool {
        self.crashed
    }

    /// Directory this backend persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Queue a snapshot write (durable only after [`Backend::flush`]).
    pub fn put_snapshot(&mut self, seq: u64, data: Bytes) {
        self.unflushed.push(PendingWrite::Snapshot { seq, data });
    }

    /// Queue an event-log append.
    pub fn append_log(&mut self, data: &[u8]) {
        self.unflushed.push(PendingWrite::LogAppend {
            data: data.to_vec(),
        });
    }

    /// Queue an atomic rewrite of the event log (WAL compaction: the
    /// prefix before the last checkpoint mark is dead weight).
    pub fn replace_log(&mut self, data: &[u8]) {
        self.unflushed.push(PendingWrite::LogReplace {
            data: data.to_vec(),
        });
    }

    /// Flush all queued writes durably (temp-file + rename for snapshots,
    /// append for the log). Writes queued after a scheduled fault fires
    /// are lost, like everything else a dead machine was about to do.
    ///
    /// Consecutive log appends **coalesce into one write + fsync** —
    /// this is what makes group commit (and the async WAL writer's
    /// time/size flush policy) actually amortize the sync cost instead
    /// of paying one fsync per buffered frame. The bytes on disk, and
    /// the byte-offset fault semantics, are identical to flushing each
    /// append separately.
    pub fn flush(&mut self) -> Result<(), BackendError> {
        let pending: Vec<PendingWrite> = self.unflushed.drain(..).collect();
        // coalesced run of consecutive log appends, and the durable log
        // length the run starts at (so per-append fault offsets resolve
        // exactly as they would have one append at a time)
        let mut run: Vec<u8> = Vec::new();
        let mut log_len: Option<u64> = None;
        for w in pending {
            if self.crashed {
                break;
            }
            match w {
                PendingWrite::LogAppend { mut data } => {
                    let durable = match log_len {
                        Some(l) => l,
                        None => match fs::metadata(self.dir.join("events.log")) {
                            Ok(m) => m.len(),
                            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
                            Err(e) => return Err(e.into()),
                        },
                    };
                    // scheduled fault: does this append contain the
                    // scheduled byte?
                    if let Some((offset, kind)) = self.log_fault {
                        if offset >= durable && offset < durable + data.len() as u64 {
                            let at = (offset - durable) as usize;
                            match kind {
                                FaultKind::Torn => data.truncate(at),
                                FaultKind::BitFlip { bit } => data[at] ^= 1 << (bit % 8),
                                FaultKind::DuplicatedTail => {
                                    let copy = data.clone();
                                    data.extend_from_slice(&copy);
                                }
                            }
                            self.crashed = true;
                        }
                    }
                    log_len = Some(durable + data.len() as u64);
                    run.extend_from_slice(&data);
                }
                PendingWrite::Snapshot { seq, data } => {
                    self.flush_log_run(&mut run)?;
                    let tmp = self.dir.join(format!("snapshot-{seq}.tmp"));
                    let fin = self.dir.join(format!("snapshot-{seq}.db"));
                    let mut f = fs::File::create(&tmp)?;
                    f.write_all(&data)?;
                    f.sync_all()?;
                    fs::rename(&tmp, &fin)?;
                    self.bytes_written += data.len() as u64;
                    self.snapshots_written += 1;
                }
                PendingWrite::LogReplace { data } => {
                    self.flush_log_run(&mut run)?;
                    let tmp = self.dir.join("events.log.tmp");
                    let fin = self.dir.join("events.log");
                    let mut f = fs::File::create(&tmp)?;
                    f.write_all(&data)?;
                    f.sync_all()?;
                    fs::rename(&tmp, &fin)?;
                    self.bytes_written += data.len() as u64;
                    log_len = Some(data.len() as u64);
                }
            }
        }
        self.flush_log_run(&mut run)
    }

    /// Land a coalesced append run: one open, one write, one fsync.
    fn flush_log_run(&mut self, run: &mut Vec<u8>) -> Result<(), BackendError> {
        if run.is_empty() {
            return Ok(());
        }
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join("events.log"))?;
        f.write_all(run)?;
        f.sync_all()?;
        self.bytes_written += run.len() as u64;
        run.clear();
        Ok(())
    }

    /// Simulate a crash: all unflushed writes vanish. Also acknowledges
    /// a fired scheduled fault, so recovery can read what survived.
    pub fn crash(&mut self) {
        self.unflushed.clear();
        self.log_fault = None;
        self.crashed = false;
    }

    /// Read one durable snapshot.
    pub fn read_snapshot(&self, seq: u64) -> Result<Vec<u8>, BackendError> {
        Ok(fs::read(self.dir.join(format!("snapshot-{seq}.db")))?)
    }

    /// Sequence numbers of durably installed snapshots, ascending.
    pub fn snapshot_seqs(&self) -> Result<Vec<u64>, BackendError> {
        let mut seqs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(rest) = name.strip_prefix("snapshot-") {
                if let Some(num) = rest.strip_suffix(".db") {
                    if let Ok(seq) = num.parse::<u64>() {
                        seqs.push(seq);
                    }
                }
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Every snapshot on disk as `(seq, bytes)`, newest first, each file
    /// read only when the iterator reaches it — recovery stops at the
    /// first one that decodes, so older files are never opened.
    pub fn snapshots_newest_first(
        &self,
    ) -> Result<impl Iterator<Item = (u64, Result<Vec<u8>, BackendError>)> + '_, BackendError> {
        let seqs = self.snapshot_seqs()?;
        Ok(seqs.into_iter().rev().map(|seq| (seq, self.read_snapshot(seq))))
    }

    /// Durable size of the event log in bytes.
    pub fn log_len(&self) -> Result<u64, BackendError> {
        match fs::metadata(self.dir.join("events.log")) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e.into()),
        }
    }

    /// Delete durable snapshots older than the newest `keep` (retention).
    pub fn prune_snapshots(&mut self, keep: usize) -> Result<usize, BackendError> {
        let seqs = self.snapshot_seqs()?;
        let mut removed = 0;
        if seqs.len() > keep {
            for seq in &seqs[..seqs.len() - keep] {
                fs::remove_file(self.dir.join(format!("snapshot-{seq}.db")))?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Read the whole event log (empty when none).
    pub fn read_log(&self) -> Result<Vec<u8>, BackendError> {
        match fs::read(self.dir.join("events.log")) {
            Ok(v) => Ok(v),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        }
    }
}

/// Create a unique temp directory for tests and experiments.
pub fn temp_dir(label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("gamedb-{label}-{pid}-{n}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_flush_and_reload() {
        let mut b = Backend::open(temp_dir("backend1")).unwrap();
        b.put_snapshot(1, Bytes::from_static(b"alpha"));
        b.put_snapshot(2, Bytes::from_static(b"beta"));
        b.flush().unwrap();
        let (seq, data) = b.snapshots_newest_first().unwrap().next().unwrap();
        assert_eq!(seq, 2);
        assert_eq!(data.unwrap(), b"beta");
        assert_eq!(b.snapshots_written, 2);
        assert_eq!(b.snapshot_seqs().unwrap(), vec![1, 2]);
    }

    #[test]
    fn crash_discards_unflushed() {
        let mut b = Backend::open(temp_dir("backend2")).unwrap();
        b.put_snapshot(1, Bytes::from_static(b"first"));
        b.flush().unwrap();
        b.put_snapshot(2, Bytes::from_static(b"second"));
        b.crash();
        let (seq, data) = b.snapshots_newest_first().unwrap().next().unwrap();
        assert_eq!(seq, 1);
        assert_eq!(data.unwrap(), b"first");
    }

    #[test]
    fn empty_backend_has_no_snapshot() {
        let b = Backend::open(temp_dir("backend3")).unwrap();
        assert!(b.snapshots_newest_first().unwrap().next().is_none());
    }

    #[test]
    fn log_appends_accumulate() {
        let mut b = Backend::open(temp_dir("backend4")).unwrap();
        b.append_log(b"one|");
        b.append_log(b"two|");
        b.flush().unwrap();
        b.append_log(b"lost");
        b.crash();
        assert_eq!(b.read_log().unwrap(), b"one|two|");
    }

    #[test]
    fn prune_keeps_newest() {
        let mut b = Backend::open(temp_dir("backend5")).unwrap();
        for seq in 1..=5 {
            b.put_snapshot(seq, Bytes::from(vec![seq as u8]));
        }
        b.flush().unwrap();
        let removed = b.prune_snapshots(2).unwrap();
        assert_eq!(removed, 3);
        assert_eq!(b.snapshot_seqs().unwrap(), vec![4, 5]);
    }

    #[test]
    fn torn_fault_cuts_mid_append_and_kills_later_writes() {
        let mut b = Backend::open(temp_dir("backend-fault1")).unwrap();
        b.append_log(b"aaaa");
        b.flush().unwrap();
        // byte 6 is inside the second append
        b.schedule_log_fault(6, FaultKind::Torn);
        b.append_log(b"bbbb");
        b.flush().unwrap();
        assert!(b.fault_fired());
        b.append_log(b"cccc");
        b.put_snapshot(9, Bytes::from_static(b"late"));
        b.flush().unwrap();
        b.crash();
        assert_eq!(b.read_log().unwrap(), b"aaaabb", "torn at byte 6");
        assert!(
            !b.snapshot_seqs().unwrap().contains(&9),
            "post-crash snapshot writes must vanish"
        );
    }

    #[test]
    fn bit_flip_fault_corrupts_exactly_one_bit() {
        let mut b = Backend::open(temp_dir("backend-fault2")).unwrap();
        b.schedule_log_fault(2, FaultKind::BitFlip { bit: 0 });
        b.append_log(&[0u8, 0, 0, 0]);
        b.flush().unwrap();
        b.crash();
        assert_eq!(b.read_log().unwrap(), vec![0u8, 0, 1, 0]);
    }

    #[test]
    fn duplicated_tail_fault_appends_twice() {
        let mut b = Backend::open(temp_dir("backend-fault3")).unwrap();
        b.append_log(b"head|");
        b.flush().unwrap();
        b.schedule_log_fault(5, FaultKind::DuplicatedTail);
        b.append_log(b"tail|");
        b.flush().unwrap();
        b.crash();
        assert_eq!(b.read_log().unwrap(), b"head|tail|tail|");
    }

    #[test]
    fn fault_before_offset_leaves_writes_intact() {
        let mut b = Backend::open(temp_dir("backend-fault4")).unwrap();
        b.schedule_log_fault(100, FaultKind::Torn);
        b.append_log(b"safe");
        b.flush().unwrap();
        assert!(!b.fault_fired());
        assert_eq!(b.read_log().unwrap(), b"safe");
    }

    #[test]
    fn bytes_written_tracks_durable_volume() {
        let mut b = Backend::open(temp_dir("backend6")).unwrap();
        b.put_snapshot(1, Bytes::from_static(b"0123456789"));
        b.append_log(b"abcde");
        assert_eq!(b.bytes_written, 0, "nothing durable before flush");
        b.flush().unwrap();
        assert_eq!(b.bytes_written, 15);
    }
}
