//! The durable, content-addressed **cell store** behind crash-safe sweeps
//! and the certificate cache behind warm `gdp check` runs.
//!
//! Sweep cells are pure functions of *(spec fingerprint, cell key)* with
//! byte-reproducible outputs, which makes them exactly the shape of a
//! content-addressed work queue: each completed [`CellResult`] persists as
//! one small record file whose **address** is the digest of the pair, whose
//! **integrity** is guarded by an embedded payload checksum, and whose
//! **write** is atomic (temp file + rename) — a crash at any instant leaves
//! either a fully valid record or nothing the next run will trust.
//!
//! Exact verdicts share that shape: a `gdp-mcheck` certificate is a pure,
//! byte-reproducible function of *(check spec, topology cell)*, so the
//! store holds a second record kind — **certificate records**, keyed by
//! *(check-spec fingerprint, cell key @ topology seed)* and carrying the
//! full certificate bytes plus the derived
//! verdict/progress-probability/state-count columns.  Both kinds share one
//! record format and one codec: one address function, one writer, one
//! reader and one verifier, parameterised by a [`Record`] type whose
//! [`RecordKind`] holds the only facts that tell the kinds apart.
//!
//! On top of the store sit five protocols (all surfaced by the `gdp` CLI
//! and documented in `docs/SCENARIOS.md`):
//!
//! * **resume** — `gdp sweep --store <dir> --resume` looks every cell up
//!   before computing it; verified-complete records are reused, missing or
//!   invalid ones are recomputed, and the final artifacts are byte-identical
//!   to an uninterrupted run (enforced by the kill-and-resume fault-injection
//!   suite in `tests/sweep_resume_fault_injection.rs`);
//! * **certificate cache** — `gdp check --store <dir> --resume` (and the
//!   exact columns of `sweep --check`) answer warm runs from certificate
//!   records, bitwise identical to recomputation (see
//!   `crate::check::run_check_cached`);
//! * **sharding** — [`ShardSpec`] (`--shard i/n`) deterministically
//!   partitions the expanded grid by cell position, so `n` processes or CI
//!   jobs fill one shared (or per-shard) store cooperatively;
//! * **merge** — [`merge_stores`] (`gdp merge`) fuses shard stores back
//!   into the same [`SweepReport`] an unsharded run would have produced,
//!   byte for byte, without recomputing anything;
//! * **lifecycle** — [`gc_store`] (`gdp store gc`) retires records whose
//!   spec context matches nothing in a manifest, and [`compact_store`]
//!   (`gdp store compact`) rewrites live records into a fresh directory —
//!   dropping quarantine debris and stale temp files, round-trip-verifying
//!   every record — before an atomic directory swap.
//!
//! ## Integrity model
//!
//! Records that fail **any** validation step are never trusted and never
//! fatal: they are moved into the store's `quarantine/` directory (tagged
//! with the failure reason) and the cell is transparently recomputed.
//! Validation layers, in order (all in [`verify`]):
//!
//! 1. the format banner (`gdp-cell-store v3`; v2 banners on MC cell
//!    records are still accepted — the cell layout did not change — while
//!    a version *newer* than this build is **rejected loudly** as
//!    [`Lookup::Unsupported`], never quarantined: the record is
//!    presumed valid to a newer build and left untouched), then the line
//!    naming the record kind, if the kind has one;
//! 2. the spec fingerprint — records from a *stale or different spec*
//!    (other adversary, trial budget, step budget, seed policy or
//!    exact-check budget) are invisible to this spec's lookups by
//!    addressing, and quarantined if a hash collision or hand-rename ever
//!    routes one here;
//! 3. the declared payload byte length — truncated (torn) writes;
//! 4. the FNV-1a payload checksum — bit flips anywhere in the payload;
//! 5. strict payload parsing plus a cell-key cross-check — tampered or
//!    mis-addressed records (certificate payloads additionally cross-check
//!    the stored verdict columns against the certificates they embed, so a
//!    tampered verdict can never outvote its own certificate).
//!
//! The digests are deliberately **not** [`gdp_sim::fingerprint64`]: store
//! records persist across builds, so they sit on a fixed, documented
//! FNV-1a implementation in this module rather than on whatever the
//! in-memory state-fingerprint hasher evolves into (the same reasoning that
//! keeps sweep seed derivation on `SipHash`, see `crate::spec`).

use crate::check::{decode_check_payload, StoredCheck};
use crate::report::{decode_cell_payload, encode_cell_payload, SweepReport};
use crate::runner::CellResult;
use crate::spec::ScenarioSpec;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The format banner every record starts with; bump the version when the
/// record layout or payload schema changes and old records become
/// untrustworthy.  v3 added certificate records, whose header names their
/// kind; the MC cell layout is unchanged, so v2 cell banners are still
/// accepted.  v2 added the `first_meal_p50/p90/p99`
/// payload fields; v1 records quarantine and recompute, by design.
/// Versions *newer* than [`STORE_VERSION`] are rejected loudly
/// ([`Lookup::Unsupported`]), never quarantined.
pub const STORE_FORMAT: &str = "gdp-cell-store v3";

/// The previous format banner, still accepted on MC cell records (their
/// layout did not change between v2 and v3).
pub const STORE_FORMAT_V2: &str = "gdp-cell-store v2";

/// The store format version this build reads and writes.
pub const STORE_VERSION: u32 = 3;

/// Parses a `gdp-cell-store v<N>` banner line into its version number.
fn banner_version(line: &str) -> Option<u32> {
    line.strip_prefix("gdp-cell-store v")?.parse().ok()
}

/// The one wording of a refusal to touch `record` because its store format
/// `version` is newer than this build.  Such a record is presumed valid to
/// the build that wrote it, so it is never quarantined, reused or
/// recomputed over.
pub(crate) fn newer_format(record: &str, version: u32) -> String {
    format!(
        "{record} has format v{version}, newer than this build (v{STORE_VERSION}) — \
         upgrade gdp or move the record aside"
    )
}

/// 64-bit FNV-1a over raw bytes: the store's persistent digest for record
/// addresses, spec fingerprints and payload checksums.  Chosen for being
/// trivially reimplementable from its spec (the store outlives any one
/// build of this workspace) and strong enough for its two jobs here —
/// corruption *detection* (not tamper resistance) and address dispersion.
#[must_use]
pub fn stable_digest64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Counters describing how a store-backed sweep or merge sourced its
/// cells.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Cells satisfied by a verified-complete store record.
    pub reused: u64,
    /// Cells computed (and, when a store is attached, persisted).
    pub computed: u64,
    /// Invalid records detected, quarantined and *not* trusted.
    pub quarantined: u64,
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reused, {} computed, {} quarantined",
            self.reused, self.computed, self.quarantined
        )
    }
}

/// The outcome of one store lookup, for either record kind.
#[derive(Debug)]
pub enum Lookup<T> {
    /// No record exists for this key.
    Absent,
    /// A fully verified record was found.
    Hit(Box<T>),
    /// A record existed but failed validation; it has been moved to the
    /// quarantine directory and must be recomputed.
    Quarantined {
        /// Which validation layer rejected it.
        reason: &'static str,
    },
    /// The record carries a format version **newer** than this build
    /// understands.  It is presumed valid to a newer build, so it is left
    /// exactly where it is — not quarantined, not recomputed over — and
    /// callers must fail loudly instead of silently shadowing it.
    Unsupported {
        /// The record's declared format version.
        version: u32,
    },
}

/// The outcome of one MC cell-record lookup ([`CellStore::lookup`]).
pub type StoreLookup = Lookup<CellResult>;

/// Why a record was rejected: either it must be quarantined, or it belongs
/// to a format version newer than this build and must be left alone.
enum RecordReject {
    Quarantine(&'static str),
    Unsupported(u32),
}

/// The facts that tell the store's two record kinds — MC cell records and
/// certificate records — apart.  Everything else about a record (its
/// address, bytes, reading, verification and lifecycle) is shared.
pub(crate) struct RecordKind {
    /// The store subdirectory holding this kind's records.
    dir: &'static str,
    /// The record file extension.
    ext: &'static str,
    /// Mixed into the address, so records of two kinds never share one even
    /// under equal fingerprints and keys.
    tag: &'static str,
    /// The header line naming the kind, right after the banner, if any.
    kind_line: Option<&'static str>,
    /// The oldest format version whose banner this kind accepts.
    oldest: u32,
    /// The kind's name in messages.
    noun: &'static str,
    /// [`verify_compactable`] for this kind.
    compactable: fn(&str, &str) -> Result<(), RecordReject>,
}

/// A payload type the store persists: its kind, and the strict decoder the
/// verifier runs last.
pub(crate) trait Record: Sized {
    /// The facts of this record kind.
    const KIND: RecordKind;
    /// Strictly decodes a checksummed payload.
    fn decode(payload: &str) -> Result<Self, String>;
    /// The key the payload embeds, cross-checked against the header's.
    fn key(&self) -> &str;
}

/// MC cell records.  v2 banners are still accepted: the cell layout did not
/// change between v2 and v3.
impl Record for CellResult {
    const KIND: RecordKind = RecordKind {
        dir: "cells",
        ext: "cell",
        tag: "",
        kind_line: None,
        oldest: 2,
        noun: "cell",
        compactable: verify_compactable::<CellResult>,
    };

    fn decode(payload: &str) -> Result<Self, String> {
        decode_cell_payload(payload)
    }

    fn key(&self) -> &str {
        &self.cell
    }
}

/// Certificate records, keyed by check fingerprint and `cell@s<seed>`.  v3
/// only: certificate records did not exist before v3, so an older banner is
/// a `format` rejection, not forward compatibility.
impl Record for StoredCheck {
    const KIND: RecordKind = RecordKind {
        dir: "certs",
        ext: "cert",
        tag: "cert|",
        kind_line: Some("kind certificate"),
        oldest: 3,
        noun: "certificate",
        compactable: verify_compactable::<StoredCheck>,
    };

    fn decode(payload: &str) -> Result<Self, String> {
        decode_check_payload(payload)
    }

    fn key(&self) -> &str {
        &self.key
    }
}

/// Every record kind, in the order opening, gc and compaction visit them.
const KINDS: [RecordKind; 2] = [CellResult::KIND, StoredCheck::KIND];

/// The file name of a record: the sanitized key plus the 16-hex digest of
/// `(fingerprint, kind tag, key)`, its address.
fn record_name(kind: &RecordKind, fingerprint: u64, key: &str) -> String {
    let address = stable_digest64(format!("{fingerprint:016x}|{}{key}", kind.tag).as_bytes());
    format!("{}-{address:016x}.{}", sanitize_key(key), kind.ext)
}

/// A durable, content-addressed store of completed sweep cells and check
/// certificates.
///
/// Open one with [`CellStore::open`]; the directory layout is
///
/// ```text
/// <dir>/
///   cells/<cell-key-sanitized>-<16-hex address>.cell   one record per cell
///   certs/<cert-key-sanitized>-<16-hex address>.cert   one record per check
///   quarantine/<record name>.<reason>                  rejected records
///   spec-<16-hex fingerprint>.context                  sweep context notes
///   check-<16-hex fingerprint>.context                 check context notes
/// ```
///
/// Records of *different* spec fingerprints coexist in one directory
/// without interference (the fingerprint is part of every address), so
/// shards — and even unrelated sweeps — may share a store.
#[derive(Debug)]
pub struct CellStore {
    root: PathBuf,
    quarantine_dir: PathBuf,
    fingerprint: u64,
    swept_tmp: u64,
}

impl CellStore {
    /// Opens (creating if needed) the store at `dir` for the given spec and
    /// exact-check budget: [`open_bare`](Self::open_bare), then
    /// [`for_spec`](Self::for_spec).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and context-write I/O errors.
    pub fn open(
        dir: impl AsRef<Path>,
        spec: &ScenarioSpec,
        exact_check: Option<usize>,
    ) -> std::io::Result<CellStore> {
        CellStore::open_bare(dir)?.for_spec(spec, exact_check)
    }

    /// Opens (creating if needed) the store at `dir` **without** a sweep
    /// spec.  A bare handle addresses MC cell records under the null
    /// fingerprint, so it is meant for certificate records (which are
    /// addressed by an explicit check fingerprint), for lifecycle tooling —
    /// `gdp check --store`, `gdp store gc`, `gdp store compact` — and as
    /// the parent of per-spec handles ([`for_spec`](Self::for_spec)).
    ///
    /// Opening **sweeps stale temp files**: a SIGKILLed writer leaves its
    /// `*.tmp.*` scratch file behind (invisible to lookups, but
    /// accumulating forever), so every open deletes them.  A *live* writer
    /// whose temp file is swept out from under it is still safe: its
    /// rename fails with `NotFound`, and the write starts over with a fresh
    /// temp file.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation I/O errors.
    pub fn open_bare(dir: impl AsRef<Path>) -> std::io::Result<CellStore> {
        let root = dir.as_ref().to_path_buf();
        let quarantine_dir = root.join("quarantine");
        std::fs::create_dir_all(&quarantine_dir)?;
        let mut swept_tmp = sweep_stale_tmp_files(&root);
        for kind in &KINDS {
            let records = root.join(kind.dir);
            std::fs::create_dir_all(&records)?;
            swept_tmp += sweep_stale_tmp_files(&records);
        }
        Ok(CellStore {
            root,
            quarantine_dir,
            fingerprint: 0,
            swept_tmp,
        })
    }

    /// Derives the handle for the given spec and exact-check budget on this
    /// handle's directory, and records the spec's store context alongside
    /// the records for debuggability.  It lists no directory and sweeps
    /// nothing, so it costs the same on any store size: a long-running
    /// server opens the store once and derives one handle per request.
    /// The derived handle reports this handle's [`swept_tmp`](Self::swept_tmp).
    ///
    /// # Errors
    ///
    /// Propagates the context note's I/O errors.
    pub fn for_spec(
        &self,
        spec: &ScenarioSpec,
        exact_check: Option<usize>,
    ) -> std::io::Result<CellStore> {
        let context = spec.store_context(exact_check);
        let store = CellStore {
            root: self.root.clone(),
            quarantine_dir: self.quarantine_dir.clone(),
            fingerprint: stable_digest64(context.as_bytes()),
            swept_tmp: self.swept_tmp,
        };
        // A per-fingerprint context note: deterministic bytes, atomically
        // written, so concurrent shards racing on it are harmless.
        store.note_context("spec", store.fingerprint, &context)?;
        Ok(store)
    }

    /// Writes a `<prefix>-<16-hex fingerprint>.context` note holding the
    /// human-readable context string a fingerprint was derived from, if one
    /// is not already present.  Context notes double as the vocabulary of
    /// `gdp store gc` manifests: [`gc_store`] retains exactly the records
    /// whose fingerprint matches a manifest line's digest.
    ///
    /// # Errors
    ///
    /// Propagates the atomic write's I/O errors.
    pub fn note_context(
        &self,
        prefix: &str,
        fingerprint: u64,
        context: &str,
    ) -> std::io::Result<()> {
        let path = self
            .root
            .join(format!("{prefix}-{fingerprint:016x}.context"));
        if !path.exists() {
            write_atomically(&path, format!("{context}\n").as_bytes())?;
        }
        Ok(())
    }

    /// How many stale `*.tmp.*` files this handle's open swept away
    /// (leftovers of SIGKILLed writers; see [`open_bare`](Self::open_bare)).
    #[must_use]
    pub fn swept_tmp(&self) -> u64 {
        self.swept_tmp
    }

    /// The spec fingerprint this store handle addresses records under.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The quarantine directory (rejected records end up here).
    #[must_use]
    pub fn quarantine_dir(&self) -> &Path {
        &self.quarantine_dir
    }

    /// The record path for `cell_key` under this store's fingerprint.
    #[must_use]
    pub fn record_path(&self, cell_key: &str) -> PathBuf {
        self.path::<CellResult>(self.fingerprint, cell_key)
    }

    /// The path of the `T` record addressed by `(fingerprint, key)`.
    pub(crate) fn path<T: Record>(&self, fingerprint: u64, key: &str) -> PathBuf {
        self.root
            .join(T::KIND.dir)
            .join(record_name(&T::KIND, fingerprint, key))
    }

    /// Persists one completed cell **atomically**: the full record is
    /// written to a temp file in the same directory and renamed into place,
    /// so a crash at any instant leaves either the previous state or the
    /// complete new record — never a half-written one under the final name.
    /// Certificate records are written the same way.
    ///
    /// **Concurrent-writer semantics** (serve workers, shards and resumed
    /// sweeps may share one store directory): records are pure functions of
    /// the address, so two writers racing on the same cell must *converge*,
    /// never error.  Temp names embed the pid **and** a process-wide
    /// sequence number, so concurrent saves never collide on scratch files;
    /// both renames land the same bytes (last one wins, harmlessly).  A
    /// temp file swept by a concurrent [`open`](Self::open) is rewritten
    /// and renamed again.  If the rename still fails, the save succeeds
    /// when the final name already holds the byte-identical record a race
    /// partner renamed into place.  A valid record with *different* bytes
    /// is a determinism violation and fails loudly instead.
    ///
    /// The wall-clock `steps_per_sec` field is not persisted (stored cells
    /// are always the byte-reproducible shape).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the write or the rename (unless the
    /// convergence rule above resolves them), and reports
    /// [`std::io::ErrorKind::InvalidData`] when a concurrent writer
    /// deposited a valid record that disagrees byte-for-byte.
    pub fn save(&self, result: &CellResult) -> std::io::Result<PathBuf> {
        self.write::<CellResult>(self.fingerprint, &result.cell, &encode_cell_payload(result))
    }

    /// The one record writer behind [`save`](Self::save) and the
    /// certificate cache: frames `payload` as a `T` record addressed by
    /// `(fingerprint, key)` and persists it atomically, converging with
    /// concurrent writers of the same bytes.
    pub(crate) fn write<T: Record>(
        &self,
        fingerprint: u64,
        key: &str,
        payload: &str,
    ) -> std::io::Result<PathBuf> {
        let kind_line = T::KIND.kind_line.map(|line| format!("{line}\n"));
        let record = format!(
            "{STORE_FORMAT}\n{}spec {fingerprint:016x}\ncell {key}\npayload {} {:016x}\n---\n{payload}",
            kind_line.unwrap_or_default(),
            payload.len(),
            stable_digest64(payload.as_bytes()),
        );
        let path = self.path::<T>(fingerprint, key);
        match write_atomically(&path, record.as_bytes()) {
            Ok(()) => Ok(path),
            Err(e) => match std::fs::read_to_string(&path) {
                // A concurrent writer finished first.  Identical bytes:
                // converged, the record is in place, nothing to do.
                Ok(existing) if existing == record => Ok(path),
                // A *valid* record that disagrees is a determinism
                // violation — surface it, never shrug it off.
                Ok(existing) if verify::<T>(&existing, Some((fingerprint, key))).is_ok() => {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "concurrent writer stored different bytes for {} {key} \
                             (determinism violation)",
                            T::KIND.noun
                        ),
                    ))
                }
                _ => Err(e),
            },
        }
    }

    /// Looks `cell_key` up under this store's fingerprint, verifying every
    /// integrity layer; invalid records are quarantined (moved, tagged with
    /// the reason) and reported as [`Lookup::Quarantined`] so the caller
    /// recomputes.  Certificate records are read the same way.
    #[must_use]
    pub fn lookup(&self, cell_key: &str) -> StoreLookup {
        self.read(self.fingerprint, cell_key)
    }

    /// The one record reader behind [`lookup`](Self::lookup) and the
    /// certificate cache: reads and verifies the `T` record addressed by
    /// `(fingerprint, key)`, quarantining it when it fails.
    pub(crate) fn read<T: Record>(&self, fingerprint: u64, key: &str) -> Lookup<T> {
        let path = self.path::<T>(fingerprint, key);
        let raw = match std::fs::read_to_string(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Absent,
            // Unreadable (permissions, non-UTF-8, ...): treat as invalid.
            Err(_) => {
                self.quarantine(&path, "unreadable");
                return Lookup::Quarantined {
                    reason: "unreadable",
                };
            }
        };
        match verify(&raw, Some((fingerprint, key))) {
            Ok((_, _, record)) => Lookup::Hit(Box::new(record)),
            Err(RecordReject::Unsupported(version)) => Lookup::Unsupported { version },
            Err(RecordReject::Quarantine(reason)) => {
                self.quarantine(&path, reason);
                Lookup::Quarantined { reason }
            }
        }
    }

    /// Moves a rejected record out of the addressable space.  Repeat
    /// quarantines of the same record name get a numeric suffix
    /// (`<name>.<reason>`, `<name>.<reason>.2`, ...) so earlier evidence is
    /// never silently overwritten.  Best-effort: if the move fails the
    /// record is deleted instead, and if even that fails the next lookup
    /// will simply re-reject it.
    fn quarantine(&self, path: &Path, reason: &'static str) {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "record".to_string());
        let mut target = self.quarantine_dir.join(format!("{name}.{reason}"));
        let mut attempt = 1u32;
        while target.exists() && attempt < 10_000 {
            attempt += 1;
            target = self
                .quarantine_dir
                .join(format!("{name}.{reason}.{attempt}"));
        }
        if std::fs::rename(path, &target).is_err() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Sanitizes a record key into its filename stem: alphanumerics, `-` and
/// `.` survive, everything else becomes `_` (the 16-hex address suffix
/// keeps distinct keys distinct even when sanitization collides).
fn sanitize_key(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Deletes every stale `*.tmp.*` scratch file directly under `dir`
/// (non-recursively) and returns how many were removed.  Scratch files are
/// only ever meaningful to the writer that created them; any still on disk
/// at open time belonged to a writer that died before its rename.
fn sweep_stale_tmp_files(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let is_file = entry.file_type().map(|t| t.is_file()).unwrap_or(false);
        if is_file && name.contains(".tmp.") && std::fs::remove_file(entry.path()).is_ok() {
            swept += 1;
        }
    }
    swept
}

/// Process-wide counter distinguishing concurrent writers *within* one
/// process (serve workers, test threads): the pid alone cannot.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// How many times [`write_atomically`] rewrites a scratch file that a
/// concurrent [`CellStore::open`] swept away before the rename.
const SWEPT_SCRATCH_RETRIES: u32 = 16;

/// Writes `bytes` to `path` atomically: temp file in the target directory,
/// flush, then rename over the final name.  The temp name embeds pid and a
/// process-wide sequence number so concurrent writers never share scratch
/// files (two threads interleaving writes into one temp file would tear
/// it).  Every open sweeps `*.tmp.*` files, live ones included, so a
/// rename that fails with `NotFound` writes a fresh scratch file and tries
/// again, up to [`SWEPT_SCRATCH_RETRIES`] times.
fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut retries = 0;
    loop {
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.flush()?;
        }
        match std::fs::rename(&tmp, path) {
            Ok(()) => return Ok(()),
            Err(e)
                if e.kind() == std::io::ErrorKind::NotFound && retries < SWEPT_SCRATCH_RETRIES =>
            {
                retries += 1;
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        }
    }
}

/// The one record verifier: runs every validation layer over one raw `T`
/// record — banner version (no older than the kind accepts, no newer than
/// this build), the kind line, the spec fingerprint and key lines, payload
/// length and FNV-1a checksum; then, when `expect` names the `(fingerprint,
/// key)` the record was looked up under, the address match; and last,
/// strict payload decoding plus a cross-check of the key the payload
/// embeds.  Returns the header's fingerprint and key with the decoded
/// payload, or the reason the record must be rejected.
fn verify<'a, T: Record>(
    raw: &'a str,
    expect: Option<(u64, &str)>,
) -> Result<(u64, &'a str, T), RecordReject> {
    use RecordReject::Quarantine;
    let Some((header, payload)) = raw.split_once("\n---\n") else {
        return Err(Quarantine("truncated-header"));
    };
    let mut lines = header.lines();
    match lines.next().and_then(banner_version) {
        Some(version) if version > STORE_VERSION => return Err(RecordReject::Unsupported(version)),
        Some(version) if version >= T::KIND.oldest => {}
        _ => return Err(Quarantine("format")),
    }
    if let Some(kind_line) = T::KIND.kind_line {
        if lines.next() != Some(kind_line) {
            return Err(Quarantine("format"));
        }
    }
    let Some(fingerprint) = lines
        .next()
        .and_then(|l| l.strip_prefix("spec "))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
    else {
        return Err(Quarantine("format"));
    };
    let Some(key) = lines.next().and_then(|l| l.strip_prefix("cell ")) else {
        return Err(Quarantine("format"));
    };
    let Some((len, digest)) = lines
        .next()
        .and_then(|l| l.strip_prefix("payload "))
        .and_then(|l| l.split_once(' '))
    else {
        return Err(Quarantine("format"));
    };
    if lines.next().is_some() {
        return Err(Quarantine("format"));
    }
    if len.parse() != Ok(payload.len()) {
        return Err(Quarantine("truncated-payload"));
    }
    if u64::from_str_radix(digest, 16) != Ok(stable_digest64(payload.as_bytes())) {
        return Err(Quarantine("checksum"));
    }
    if let Some((expected_fingerprint, expected_key)) = expect {
        if fingerprint != expected_fingerprint {
            return Err(Quarantine("stale-spec"));
        }
        if key != expected_key {
            return Err(Quarantine("cell-key"));
        }
    }
    let record = T::decode(payload).map_err(|_| Quarantine("payload"))?;
    if record.key() != key {
        return Err(Quarantine("cell-key"));
    }
    Ok((fingerprint, key, record))
}

// ---------------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------------

/// A deterministic 1-based partition of the expanded grid: shard `i/n` owns
/// every cell whose expansion position `p` satisfies `p % n == i - 1`.
/// Partitioning is by *position*, not by key hash, so the `n` shards are
/// balanced to within one cell and their union is exactly the grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// 1-based shard index, `1 ..= count`.
    pub index: usize,
    /// Total number of shards (≥ 1).
    pub count: usize,
}

impl ShardSpec {
    /// The trivial partition that owns every cell.
    #[must_use]
    pub fn full() -> Self {
        ShardSpec { index: 1, count: 1 }
    }

    /// Whether this shard owns the cell at expansion position `position`
    /// (0-based).
    #[must_use]
    pub fn owns(&self, position: usize) -> bool {
        position % self.count == self.index - 1
    }

    /// The canonical `i/n` spec string.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{}/{}", self.index, self.count)
    }
}

/// Error parsing a `--shard i/n` spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseShardError(String);

impl fmt::Display for ParseShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}; usage: --shard <i>/<n> with 1 <= i <= n", self.0)
    }
}

impl std::error::Error for ParseShardError {}

impl std::str::FromStr for ShardSpec {
    type Err = ParseShardError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let Some((index, count)) = s.split_once('/') else {
            return Err(ParseShardError(format!(
                "shard spec {s:?} is not of the form i/n"
            )));
        };
        let index: usize = index
            .parse()
            .map_err(|_| ParseShardError(format!("shard index {index:?} is not a number")))?;
        let count: usize = count
            .parse()
            .map_err(|_| ParseShardError(format!("shard count {count:?} is not a number")))?;
        if count == 0 {
            return Err(ParseShardError("shard count must be >= 1".to_string()));
        }
        if index == 0 || index > count {
            return Err(ParseShardError(format!(
                "shard index {index} is outside 1..={count} (shards are 1-based)"
            )));
        }
        Ok(ShardSpec { index, count })
    }
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

/// Error produced by [`merge_stores`].
#[derive(Debug)]
pub enum MergeError {
    /// The spec expands to an empty grid.
    EmptyGrid,
    /// At least one cell of the grid has no valid record in any store.
    Missing {
        /// The missing cell keys, in expansion order.
        cells: Vec<String>,
    },
    /// Two stores hold *valid* records for the same cell that disagree on
    /// the payload bytes.  Cells are pure functions of their address, so
    /// this is a determinism-violation signal (diverging builds, tampered
    /// records that still checksum, or mismatched shard provenance) — never
    /// something a merge may paper over by picking one.
    Mismatch {
        /// The cell whose records disagree.
        cell: String,
        /// 0-based index (into the `stores` argument) of the first store
        /// consulted.
        first_store: usize,
        /// 0-based index of the store that disagreed with it.
        other_store: usize,
    },
    /// A record written by a newer store format than this build knows.
    /// Rejected loudly — never quarantined or silently skipped — because a
    /// merge that drops records it cannot read produces a silently
    /// incomplete report.
    Unsupported {
        /// The cell whose record is unreadable.
        cell: String,
        /// 0-based index of the store holding it.
        store: usize,
        /// The record's format version.
        version: u32,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::EmptyGrid => write!(f, "the scenario grid is empty"),
            MergeError::Missing { cells } => {
                let shown: Vec<&str> = cells.iter().take(8).map(String::as_str).collect();
                write!(
                    f,
                    "{} of the grid's cells have no valid store record: {}{}",
                    cells.len(),
                    shown.join(", "),
                    if cells.len() > shown.len() {
                        format!(" (+{} more)", cells.len() - shown.len())
                    } else {
                        String::new()
                    }
                )
            }
            MergeError::Mismatch {
                cell,
                first_store,
                other_store,
            } => write!(
                f,
                "stores #{} and #{} hold valid records for cell {cell} that disagree \
                 byte-for-byte — cells are pure functions of (spec, key), so this is a \
                 determinism violation, not a cache conflict",
                first_store + 1,
                other_store + 1,
            ),
            MergeError::Unsupported {
                cell,
                store,
                version,
            } => f.write_str(&newer_format(
                &format!("store #{}'s record for cell {cell}", store + 1),
                *version,
            )),
        }
    }
}

impl std::error::Error for MergeError {}

/// Fuses one or more (shard) stores into the [`SweepReport`] the equivalent
/// unsharded run would have produced — byte for byte, without recomputing
/// anything.  Every cell of the spec's expansion is looked up in **every**
/// store; records are pure functions of the address, so all valid
/// candidates must be byte-identical — a disagreement aborts the merge with
/// [`MergeError::Mismatch`] (a determinism-violation signal, never resolved
/// by first-hit-wins).  Invalid records are quarantined as usual and do not
/// count as candidates.
///
/// # Errors
///
/// [`MergeError::Missing`] when any cell has no valid record anywhere;
/// [`MergeError::Mismatch`] when two stores' valid records for one cell
/// disagree; [`MergeError::EmptyGrid`] when the spec expands to nothing.
pub fn merge_stores(
    spec: &ScenarioSpec,
    stores: &[CellStore],
) -> Result<(SweepReport, StoreStats), MergeError> {
    let cells = spec.expand();
    if cells.is_empty() {
        return Err(MergeError::EmptyGrid);
    }
    let mut stats = StoreStats::default();
    let mut results = Vec::with_capacity(cells.len());
    let mut missing = Vec::new();
    for cell in &cells {
        let mut found: Option<(usize, CellResult, String)> = None;
        for (index, store) in stores.iter().enumerate() {
            match store.lookup(&cell.key) {
                StoreLookup::Hit(result) => {
                    let payload = encode_cell_payload(&result);
                    match &found {
                        None => found = Some((index, *result, payload)),
                        Some((first_store, _, first_payload)) => {
                            if payload != *first_payload {
                                return Err(MergeError::Mismatch {
                                    cell: cell.key.clone(),
                                    first_store: *first_store,
                                    other_store: index,
                                });
                            }
                        }
                    }
                }
                StoreLookup::Quarantined { .. } => stats.quarantined += 1,
                StoreLookup::Absent => {}
                StoreLookup::Unsupported { version } => {
                    return Err(MergeError::Unsupported {
                        cell: cell.key.clone(),
                        store: index,
                        version,
                    });
                }
            }
        }
        match found {
            Some((_, result, _)) => {
                stats.reused += 1;
                results.push(result);
            }
            None => missing.push(cell.key.clone()),
        }
    }
    if !missing.is_empty() {
        return Err(MergeError::Missing { cells: missing });
    }
    Ok((SweepReport::new(spec, results), stats))
}

// ---------------------------------------------------------------------------
// Lifecycle: gc and compaction
// ---------------------------------------------------------------------------

/// Counters reported by one [`gc_store`] pass (`gdp store gc`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Records whose spec context matched a manifest line.
    pub retained: u64,
    /// Records retired (deleted, or merely counted under `--dry-run`).
    pub retired: u64,
    /// Context notes retired alongside their last records.
    pub retired_notes: u64,
    /// Total bytes of retired records and notes.
    pub retired_bytes: u64,
    /// Whether this pass only reported and deleted nothing.
    pub dry_run: bool,
}

impl fmt::Display for GcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retained {} record(s), retired {} record(s) and {} context note(s), \
             {} bytes reclaimed{}",
            self.retained,
            self.retired,
            self.retired_notes,
            self.retired_bytes,
            if self.dry_run { " (dry run)" } else { "" }
        )
    }
}

/// The `spec <16-hex>` fingerprint in a record's header, if it parses.
fn record_spec_fingerprint(raw: &str) -> Option<u64> {
    raw.lines()
        .take(3)
        .find_map(|line| line.strip_prefix("spec "))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
}

/// The fingerprint embedded in a `<prefix>-<16-hex>.context` note name.
fn context_note_fingerprint(name: &str) -> Option<u64> {
    let hex = name.strip_suffix(".context")?.rsplit_once('-')?.1;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Garbage-collects the store at `dir` against a **manifest** of store
/// context lines (the strings recorded in `spec-*.context` and
/// `check-*.context` notes): every MC cell and certificate record whose
/// spec fingerprint matches the digest of some manifest line is retained,
/// everything else — including now-orphaned context notes — is retired.
/// With `dry_run` the pass only counts; nothing is deleted.
///
/// Files that do not parse as records at all (debris) are left for
/// [`compact_store`], whose job that is.
///
/// # Errors
///
/// Propagates deletion I/O errors; an absent store directory is
/// [`std::io::ErrorKind::NotFound`].
pub fn gc_store(dir: &Path, manifest: &[String], dry_run: bool) -> std::io::Result<GcReport> {
    if !dir.is_dir() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("store directory {} does not exist", dir.display()),
        ));
    }
    let retained_fingerprints: std::collections::HashSet<u64> = manifest
        .iter()
        .map(|line| stable_digest64(line.trim().as_bytes()))
        .collect();
    let mut report = GcReport {
        dry_run,
        ..GcReport::default()
    };
    for kind in &KINDS {
        for (name, path) in regular_files(&dir.join(kind.dir)) {
            if name.contains(".tmp.") {
                continue;
            }
            let Ok(raw) = std::fs::read_to_string(&path) else {
                continue;
            };
            let Some(fingerprint) = record_spec_fingerprint(&raw) else {
                continue;
            };
            if retained_fingerprints.contains(&fingerprint) {
                report.retained += 1;
            } else {
                report.retired += 1;
                report.retired_bytes += raw.len() as u64;
                if !dry_run {
                    std::fs::remove_file(&path)?;
                }
            }
        }
    }
    for (name, path) in regular_files(dir) {
        let Some(fingerprint) = context_note_fingerprint(&name) else {
            continue;
        };
        if !retained_fingerprints.contains(&fingerprint) {
            report.retired_notes += 1;
            report.retired_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
            if !dry_run {
                std::fs::remove_file(&path)?;
            }
        }
    }
    Ok(report)
}

/// Counters reported by one [`compact_store`] pass (`gdp store compact`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Verified records rewritten into the fresh directory.
    pub live: u64,
    /// Invalid records dropped (they would have been quarantined on
    /// lookup; compaction drops them outright, loudly counted here).
    pub dropped_invalid: u64,
    /// Quarantine-directory debris left behind.
    pub dropped_quarantine: u64,
    /// Stale `*.tmp.*` scratch files left behind.
    pub dropped_tmp: u64,
    /// Context notes carried over.
    pub notes: u64,
}

impl fmt::Display for CompactReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} live record(s) rewritten, {} invalid record(s) dropped, \
             {} quarantined file(s) dropped, {} stale tmp file(s) dropped, \
             {} context note(s) kept",
            self.live, self.dropped_invalid, self.dropped_quarantine, self.dropped_tmp, self.notes
        )
    }
}

/// `<dir>` with `suffix` appended to its final path component (the
/// compaction scratch/backup directories live next to the store).
fn sibling_dir(dir: &Path, suffix: &str) -> std::io::Result<PathBuf> {
    let name = dir.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("store path {} must name a directory", dir.display()),
        )
    })?;
    let mut name = name.to_os_string();
    name.push(suffix);
    Ok(dir.parent().unwrap_or(Path::new(".")).join(name))
}

/// Full record validation for compaction, where no expected fingerprint or
/// key is known a priori: [`verify`] checks the record against its own
/// header, and the file name must be exactly the address the record's own
/// (fingerprint, key) pair derives — so mis-addressed records never survive
/// a compaction.
fn verify_compactable<T: Record>(raw: &str, file_name: &str) -> Result<(), RecordReject> {
    let (fingerprint, key, _) = verify::<T>(raw, None)?;
    if file_name != record_name(&T::KIND, fingerprint, key) {
        return Err(RecordReject::Quarantine("cell-key"));
    }
    Ok(())
}

/// Compacts the store at `dir`: every live record is verified (all
/// integrity layers **plus** a filename/address cross-check and a byte
/// round-trip through the new directory) and rewritten into a fresh
/// directory, dropping quarantine debris, stale `*.tmp.*` scratch files
/// and invalid records; context notes and any other root files are carried
/// over verbatim.  The fresh directory then replaces the store through an
/// atomic two-rename swap:
///
/// ```text
/// build  <dir>.compact-tmp       (scratch; discarded wholesale on rerun)
/// rename <dir>        -> <dir>.pre-compact
/// rename <dir>.compact-tmp -> <dir>
/// delete <dir>.pre-compact
/// ```
///
/// A crash at **any** instant is recovered by simply rerunning: a stale
/// `.compact-tmp` is discarded, a `.pre-compact` left without a store is
/// renamed back, and a `.pre-compact` left *alongside* a store is the
/// superseded original of an already-completed swap.  Rewrites are
/// byte-identical, so the rerun converges on exactly the bytes an
/// uninterrupted compaction would have produced (fault-injection-tested in
/// `tests/store_gc_compact.rs`).
///
/// # Errors
///
/// I/O errors; `InvalidData` when a record's format version is newer than
/// this build (compacting what it cannot verify would risk losing live
/// data) or when a round-trip re-read disagrees.
pub fn compact_store(dir: &Path) -> std::io::Result<CompactReport> {
    let tmp = sibling_dir(dir, ".compact-tmp")?;
    let pre = sibling_dir(dir, ".pre-compact")?;
    // Crash recovery, in dependency order: discard a half-built scratch
    // directory, restore a store caught between the two renames, drop a
    // backup superseded by a completed swap.
    if tmp.exists() {
        std::fs::remove_dir_all(&tmp)?;
    }
    if !dir.exists() && pre.exists() {
        std::fs::rename(&pre, dir)?;
    }
    if pre.exists() {
        std::fs::remove_dir_all(&pre)?;
    }
    if !dir.is_dir() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("store directory {} does not exist", dir.display()),
        ));
    }
    // An aborted rewrite (unsupported record, round-trip mismatch, I/O
    // error) must not leave a half-built scratch directory next to the
    // untouched store; recovery would clean it up on the next run, but a
    // clean failure is better than a deferred one.
    let result = compact_into(dir, &tmp);
    if result.is_err() {
        let _ = std::fs::remove_dir_all(&tmp);
        return result;
    }
    std::fs::rename(dir, &pre)?;
    std::fs::rename(&tmp, dir)?;
    std::fs::remove_dir_all(&pre)?;
    result
}

/// The rewrite half of [`compact_store`]: verifies and copies every live
/// record of `dir` into the scratch directory `tmp`, leaving `dir`
/// untouched.  The caller owns the atomic swap (and the cleanup of `tmp`
/// on failure).
fn compact_into(dir: &Path, tmp: &Path) -> std::io::Result<CompactReport> {
    let mut report = CompactReport::default();
    std::fs::create_dir_all(tmp.join("quarantine"))?;
    for kind in &KINDS {
        std::fs::create_dir_all(tmp.join(kind.dir))?;
        for (name, path) in regular_files(&dir.join(kind.dir)) {
            if name.contains(".tmp.") {
                report.dropped_tmp += 1;
                continue;
            }
            let Ok(raw) = std::fs::read_to_string(&path) else {
                report.dropped_invalid += 1;
                continue;
            };
            match (kind.compactable)(&raw, &name) {
                Ok(()) => {}
                Err(RecordReject::Unsupported(version)) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        newer_format(&format!("record {}", path.display()), version),
                    ));
                }
                Err(RecordReject::Quarantine(_)) => {
                    report.dropped_invalid += 1;
                    continue;
                }
            }
            write_verified(&tmp.join(kind.dir).join(&name), raw.as_bytes())?;
            report.live += 1;
        }
    }
    if let Ok(entries) = std::fs::read_dir(dir.join("quarantine")) {
        report.dropped_quarantine = entries.flatten().count() as u64;
    }
    for (name, path) in regular_files(dir) {
        if name.contains(".tmp.") {
            report.dropped_tmp += 1;
            continue;
        }
        // Context notes — and any root file a future layout adds — are
        // carried over verbatim, round-trip-verified like records.
        write_verified(&tmp.join(&name), &std::fs::read(&path)?)?;
        if name.ends_with(".context") {
            report.notes += 1;
        }
    }
    Ok(report)
}

/// The regular files directly under `dir` (none when it cannot be read),
/// as (lossy name, path) pairs sorted by name.
fn regular_files(dir: &Path) -> Vec<(String, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<(String, PathBuf)> = entries
        .flatten()
        .filter(|entry| entry.file_type().is_ok_and(|t| t.is_file()))
        .map(|entry| {
            (
                entry.file_name().to_string_lossy().into_owned(),
                entry.path(),
            )
        })
        .collect();
    files.sort();
    files
}

/// Writes `bytes` to `out` and reads them back, so a compaction never
/// carries a record or note over without proving the copy is exact.
fn write_verified(out: &Path, bytes: &[u8]) -> std::io::Result<()> {
    std::fs::write(out, bytes)?;
    if std::fs::read(out)? != bytes {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("round-trip mismatch rewriting {}", out.display()),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_sweep, run_sweep_durable, SweepOptions};
    use crate::spec::SeedPolicy;

    fn test_spec(tag: &str) -> ScenarioSpec {
        ScenarioSpec::new(tag)
            .with_families_str("ring,star")
            .unwrap()
            .with_sizes([4])
            .with_algorithms_str("gdp1,lr1")
            .unwrap()
            .with_trials(3)
            .with_max_steps(4_000)
            .with_seed_policy(SeedPolicy::PerCell(9))
    }

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gdp_store_test_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn completed_store(tag: &str) -> (ScenarioSpec, CellStore, PathBuf) {
        let spec = test_spec(tag);
        let dir = temp_store_dir(tag);
        let store = CellStore::open(&dir, &spec, None).unwrap();
        let (_, stats) = run_sweep_durable(
            &spec,
            &SweepOptions::quiet(),
            Some(&store),
            true,
            None,
            |_| {},
        )
        .unwrap();
        assert_eq!(stats.computed, 4);
        (spec, store, dir)
    }

    #[test]
    fn save_lookup_round_trip_is_exact_and_atomic() {
        let (spec, store, dir) = completed_store("roundtrip");
        let reference = run_sweep(&spec, &SweepOptions::quiet()).unwrap();
        for cell in &reference.cells {
            match store.lookup(&cell.cell) {
                StoreLookup::Hit(stored) => assert_eq!(*stored, *cell),
                other => panic!("expected hit for {}: {other:?}", cell.cell),
            }
        }
        // No temp files survive a clean save.
        let stray: Vec<_> = std::fs::read_dir(dir.join("cells"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| !name.ends_with(".cell"))
            .collect();
        assert!(stray.is_empty(), "stray files: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_is_absent_for_unknown_cells_and_other_fingerprints() {
        let (spec, store, dir) = completed_store("absent");
        assert!(matches!(store.lookup("ring/n99/GDP1"), StoreLookup::Absent));
        // A store handle opened for a *different* spec sees nothing: the
        // fingerprint participates in every address.
        let other = CellStore::open(&dir, &spec.clone().with_trials(99), None).unwrap();
        assert!(matches!(other.lookup("ring/n4/GDP1"), StoreLookup::Absent));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The corruption gauntlet: truncation, bit flips, fingerprint
    /// mismatches and stale-spec records are each detected, quarantined
    /// (never silently reused) and then transparently recomputed.
    #[test]
    fn corrupt_records_are_quarantined_and_recomputed_never_reused() {
        type Corruption<'a> = (&'a str, &'a dyn Fn(&Path));
        let cases: &[Corruption] = &[
            ("truncate", &|path| {
                let raw = std::fs::read(path).unwrap();
                std::fs::write(path, &raw[..raw.len() / 2]).unwrap();
            }),
            ("bitflip", &|path| {
                let mut raw = std::fs::read(path).unwrap();
                let target = raw.len() - 20; // somewhere inside the payload
                raw[target] ^= 0x04;
                std::fs::write(path, raw).unwrap();
            }),
            ("fingerprint", &|path| {
                let raw = std::fs::read_to_string(path).unwrap();
                let stale = raw
                    .lines()
                    .map(|l| {
                        if l.starts_with("spec ") {
                            "spec 00000000deadbeef".to_string()
                        } else {
                            l.to_string()
                        }
                    })
                    .collect::<Vec<_>>()
                    .join("\n")
                    + "\n";
                std::fs::write(path, stale).unwrap();
            }),
        ];
        for (tag, corrupt) in cases {
            let (spec, store, dir) = completed_store(&format!("corrupt_{tag}"));
            let key = "ring/n4/GDP1";
            let path = store.record_path(key);
            corrupt(&path);
            // The resumed sweep itself detects the damage, quarantines the
            // record, recomputes exactly that cell, and ends up identical
            // to a clean run.
            let (report, stats) = run_sweep_durable(
                &spec,
                &SweepOptions::quiet(),
                Some(&store),
                true,
                None,
                |_| {},
            )
            .unwrap();
            assert!(
                std::fs::read_dir(store.quarantine_dir()).unwrap().count() >= 1,
                "{tag}: quarantine must hold the rejected record"
            );
            assert_eq!(stats.reused, 3, "{tag}");
            assert_eq!(stats.computed, 1, "{tag}");
            assert_eq!(stats.quarantined, 1, "{tag}");
            assert_eq!(
                report,
                run_sweep(&spec, &SweepOptions::quiet()).unwrap(),
                "{tag}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn records_renamed_onto_the_wrong_address_are_rejected() {
        let (_, store, dir) = completed_store("wrongkey");
        // Rename LR1's record onto GDP1's address: the embedded cell key no
        // longer matches the lookup.
        std::fs::rename(
            store.record_path("ring/n4/LR1"),
            store.record_path("ring/n4/GDP1"),
        )
        .unwrap();
        assert!(matches!(
            store.lookup("ring/n4/GDP1"),
            StoreLookup::Quarantined { reason: "cell-key" }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_specs_parse_partition_and_reject_malformed_input() {
        let shard: ShardSpec = "2/3".parse().unwrap();
        assert_eq!(shard, ShardSpec { index: 2, count: 3 });
        assert_eq!(shard.name(), "2/3");
        // Every position is owned by exactly one shard of the partition.
        for count in 1..=4usize {
            for position in 0..24 {
                let owners = (1..=count)
                    .filter(|&index| ShardSpec { index, count }.owns(position))
                    .count();
                assert_eq!(owners, 1, "position {position} of {count} shards");
            }
        }
        for bad in ["", "3", "0/4", "5/4", "a/b", "1/0", "-1/2", "1/2/3"] {
            let err = bad.parse::<ShardSpec>().unwrap_err();
            assert!(err.to_string().contains("usage: --shard"), "{bad}: {err}");
        }
    }

    #[test]
    fn merge_reconstructs_the_unsharded_report_and_names_missing_cells() {
        let spec = test_spec("merge");
        let reference = run_sweep(&spec, &SweepOptions::quiet()).unwrap();
        let dir_a = temp_store_dir("merge_a");
        let dir_b = temp_store_dir("merge_b");
        let store_a = CellStore::open(&dir_a, &spec, None).unwrap();
        let store_b = CellStore::open(&dir_b, &spec, None).unwrap();
        let shard = |i| Some(ShardSpec { index: i, count: 2 });
        run_sweep_durable(
            &spec,
            &SweepOptions::quiet(),
            Some(&store_a),
            false,
            shard(1),
            |_| {},
        )
        .unwrap();
        // Merging half the grid fails loudly, naming what is missing.
        let err =
            merge_stores(&spec, &[CellStore::open(&dir_a, &spec, None).unwrap()]).unwrap_err();
        assert!(err.to_string().contains("ring/n4/LR1"), "{err}");
        run_sweep_durable(
            &spec,
            &SweepOptions::quiet(),
            Some(&store_b),
            false,
            shard(2),
            |_| {},
        )
        .unwrap();
        let (merged, stats) = merge_stores(
            &spec,
            &[
                CellStore::open(&dir_a, &spec, None).unwrap(),
                CellStore::open(&dir_b, &spec, None).unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(merged, reference);
        assert_eq!(merged.to_json(), reference.to_json());
        assert_eq!(merged.to_csv(), reference.to_csv());
        assert_eq!(stats.reused, 4);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open_without_touching_records() {
        let (spec, store, dir) = completed_store("tmpsweep");
        // Leftovers of SIGKILLed writers: scratch files in the cells dir
        // and next to the context note in the root.
        let stale_cell_tmp = dir.join("cells").join("ring_n4_GDP1-feed.tmp.12345.0");
        let stale_root_tmp = dir.join("spec-0000000000000000.tmp.12345.1");
        std::fs::write(&stale_cell_tmp, b"half a record").unwrap();
        std::fs::write(&stale_root_tmp, b"half a context").unwrap();
        drop(store);
        let reopened = CellStore::open(&dir, &spec, None).unwrap();
        assert_eq!(reopened.swept_tmp(), 2, "both stale scratch files swept");
        assert!(!stale_cell_tmp.exists());
        assert!(!stale_root_tmp.exists());
        // Real records are untouched and still verify.
        assert!(matches!(
            reopened.lookup("ring/n4/GDP1"),
            StoreLookup::Hit(_)
        ));
        // A second open has nothing left to sweep.
        assert_eq!(CellStore::open(&dir, &spec, None).unwrap().swept_tmp(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_handle_derived_for_a_spec_answers_like_open_and_sweeps_nothing() {
        let (spec, store, dir) = completed_store("forspec");
        drop(store);
        let bare = CellStore::open_bare(&dir).unwrap();
        // Scratch that appears after the open belongs to someone else's
        // save, as far as this handle knows: deriving must not touch it.
        let scratch = dir.join("cells").join("ring_n4_GDP1-feed.tmp.12345.0");
        std::fs::write(&scratch, b"half a record").unwrap();
        let derived = bare.for_spec(&spec, None).unwrap();
        assert!(scratch.exists(), "for_spec must not sweep");
        let opened = CellStore::open(&dir, &spec, None).unwrap();
        assert!(!scratch.exists(), "open still sweeps");
        assert_eq!(derived.fingerprint(), opened.fingerprint());
        assert_eq!(
            derived.record_path("ring/n4/GDP1"),
            opened.record_path("ring/n4/GDP1")
        );
        assert!(matches!(
            derived.lookup("ring/n4/GDP1"),
            StoreLookup::Hit(_)
        ));
        // A spec the store has never seen gets its context note on
        // derivation, exactly as an open writes it.
        let other = spec.clone().with_trials(99);
        let derived = bare.for_spec(&other, Some(5_000)).unwrap();
        let note = dir.join(format!("spec-{:016x}.context", derived.fingerprint()));
        assert_eq!(
            std::fs::read_to_string(note).unwrap(),
            format!("{}\n", other.store_context(Some(5_000)))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_on_the_same_cell_converge_without_error() {
        let (_spec, store, dir) = completed_store("concurrent");
        let result = match store.lookup("ring/n4/GDP1") {
            StoreLookup::Hit(result) => *result,
            other => panic!("expected hit: {other:?}"),
        };
        // Many threads hammering the same cell address: every save must
        // succeed (identical bytes converge) and the record stays valid.
        let store = std::sync::Arc::new(store);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let store = store.clone();
                let result = result.clone();
                scope.spawn(move || {
                    for _ in 0..16 {
                        store.save(&result).expect("concurrent save converges");
                    }
                });
            }
        });
        match store.lookup("ring/n4/GDP1") {
            StoreLookup::Hit(stored) => assert_eq!(*stored, result),
            other => panic!("record must survive the stampede: {other:?}"),
        }
        // A concurrent writer that would deposit *different* bytes for the
        // same address is a determinism violation, not a convergence case.
        let mut evil = result.clone();
        evil.mean_hunger += 1.0;
        let record_path = store.record_path("ring/n4/GDP1");
        let spec_fp = store.fingerprint();
        let evil_payload = crate::report::encode_cell_payload(&evil);
        let evil_record = format!(
            "{STORE_FORMAT}\nspec {spec_fp:016x}\ncell {}\npayload {} {:016x}\n---\n{evil_payload}",
            evil.cell,
            evil_payload.len(),
            stable_digest64(evil_payload.as_bytes()),
        );
        std::fs::write(&record_path, evil_record).unwrap();
        // Simulate "my rename lost" by making the scratch dir read-only?
        // Portable shortcut: call the convergence check directly through
        // save() after making the temp write fail is not portable, so
        // instead assert the weaker, still-load-bearing property: saving
        // over a valid-but-different record succeeds by *replacing* it
        // (rename wins), restoring the canonical bytes.
        store.save(&result).unwrap();
        match store.lookup("ring/n4/GDP1") {
            StoreLookup::Hit(stored) => assert_eq!(*stored, result),
            other => panic!("canonical record must win: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn saves_and_opens_survive_concurrent_tmp_sweeps() {
        // Every open sweeps all `*.tmp.*` files, including the scratch file
        // of a save or context note another thread has in flight.  Each
        // round uses a fresh spec, so the context note and the record are
        // new: no record already in place can mask a lost rename.
        let (spec, store, dir) = completed_store("sweeprace");
        let StoreLookup::Hit(result) = store.lookup("ring/n4/GDP1") else {
            panic!("expected a hit");
        };
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let (spec, dir, result, start) = (&spec, &dir, &result, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..150 {
                        let spec = spec.clone().with_trials(1_000 * (thread + 1) + round);
                        let store = CellStore::open(dir, &spec, None).expect("open");
                        store.save(result).expect("save");
                    }
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeat_quarantines_of_one_record_name_keep_all_evidence() {
        let (_, store, dir) = completed_store("requarantine");
        let path = store.record_path("ring/n4/GDP1");
        // First corruption: quarantined under <name>.<reason>.
        std::fs::write(&path, "garbage one").unwrap();
        assert!(matches!(
            store.lookup("ring/n4/GDP1"),
            StoreLookup::Quarantined { .. }
        ));
        // Second corruption of the same record name: a numeric suffix
        // disambiguates instead of overwriting the earlier evidence.
        std::fs::write(&path, "garbage two").unwrap();
        assert!(matches!(
            store.lookup("ring/n4/GDP1"),
            StoreLookup::Quarantined { .. }
        ));
        let evidence: Vec<String> = std::fs::read_dir(store.quarantine_dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(
            evidence.len(),
            2,
            "both corrupt snapshots must be preserved: {evidence:?}"
        );
        let contents: Vec<String> = evidence
            .iter()
            .map(|name| std::fs::read_to_string(store.quarantine_dir().join(name)).unwrap())
            .collect();
        assert!(
            contents.contains(&"garbage one".to_string()),
            "{contents:?}"
        );
        assert!(
            contents.contains(&"garbage two".to_string()),
            "{contents:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_detects_disagreeing_valid_records_as_determinism_violation() {
        let spec = test_spec("mismatch");
        let dir_a = temp_store_dir("mismatch_a");
        let dir_b = temp_store_dir("mismatch_b");
        for dir in [&dir_a, &dir_b] {
            let store = CellStore::open(dir, &spec, None).unwrap();
            run_sweep_durable(
                &spec,
                &SweepOptions::quiet(),
                Some(&store),
                false,
                None,
                |_| {},
            )
            .unwrap();
        }
        // Replace one of store B's records with a *valid* record whose
        // payload disagrees — the shape a diverged build or tampered shard
        // would produce.
        let store_b = CellStore::open(&dir_b, &spec, None).unwrap();
        let mut diverged = match store_b.lookup("ring/n4/GDP1") {
            StoreLookup::Hit(result) => *result,
            other => panic!("expected hit: {other:?}"),
        };
        diverged.mean_hunger += 1.0;
        store_b.save(&diverged).unwrap();
        let stores = [
            CellStore::open(&dir_a, &spec, None).unwrap(),
            CellStore::open(&dir_b, &spec, None).unwrap(),
        ];
        let err = merge_stores(&spec, &stores).unwrap_err();
        match &err {
            MergeError::Mismatch {
                cell,
                first_store,
                other_store,
            } => {
                assert_eq!(cell, "ring/n4/GDP1");
                assert_eq!((*first_store, *other_store), (0, 1));
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("determinism violation"), "{err}");
        // Repairing store B restores the merge.
        let canonical = match stores[0].lookup("ring/n4/GDP1") {
            StoreLookup::Hit(result) => *result,
            other => panic!("expected hit: {other:?}"),
        };
        stores[1].save(&canonical).unwrap();
        let (merged, stats) = merge_stores(&spec, &stores).unwrap();
        assert_eq!(merged.cells.len(), 4);
        assert_eq!(stats.reused, 4);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    /// The on-disk format, pinned byte for byte: one cell record (a ring-4
    /// GDP1 sweep cell) and one certificate record (a ring-3 GDP1 check).
    /// Stores outlive builds, so a change to either file's name or bytes
    /// is a format change, not a refactor.
    #[test]
    fn record_names_and_bytes_are_pinned() {
        let dir = temp_store_dir("pinned");
        let spec = ScenarioSpec::new("pinned")
            .with_families_str("ring")
            .unwrap()
            .with_sizes([4])
            .with_algorithms_str("gdp1")
            .unwrap()
            .with_trials(3)
            .with_max_steps(4_000)
            .with_seed_policy(SeedPolicy::PerCell(9));
        let store = CellStore::open(&dir, &spec, None).unwrap();
        run_sweep_durable(
            &spec,
            &SweepOptions::quiet(),
            Some(&store),
            false,
            None,
            |_| {},
        )
        .unwrap();
        let check = crate::check::CheckSpec::new(
            crate::family::TopologyFamily::Ring,
            3,
            gdp_algorithms::AlgorithmKind::Gdp1,
        );
        crate::check::run_check_cached(&check, &store, false).unwrap();
        let files = |sub: &str| -> Vec<(String, u64)> {
            std::fs::read_dir(dir.join(sub))
                .unwrap()
                .map(|entry| {
                    let entry = entry.unwrap();
                    let bytes = std::fs::read(entry.path()).unwrap();
                    (
                        entry.file_name().into_string().unwrap(),
                        stable_digest64(&bytes),
                    )
                })
                .collect()
        };
        assert_eq!(
            files("cells"),
            [(
                "ring_n4_GDP1-47062ad106054f07.cell".to_string(),
                0xe739_3714_044c_2af8
            )]
        );
        assert_eq!(
            files("certs"),
            [(
                "ring_n3_GDP1_s0-210d1e2cbccea887.cert".to_string(),
                0x1c62_d0ff_1bab_30df
            )]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stable_digest_is_pinned_across_builds() {
        // FNV-1a test vectors: the digest addresses on-disk records, so it
        // must never drift between builds.
        assert_eq!(stable_digest64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_digest64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(stable_digest64(b"foobar"), 0x85944171f73967e8);
    }

    /// A v2 store keeps answering MC cells under a v3 build: the version
    /// bump added certificate records, it did not change the cell record
    /// layout, so rejecting v2 cells would throw away valid work.  Each
    /// kind's oldest accepted banner is its own: certificate records are
    /// v3-only.
    #[test]
    fn v2_cell_records_still_answer_under_a_v3_build() {
        let (_, store, dir) = completed_store("v2_compat");
        let key = "ring/n4/GDP1";
        let path = store.record_path(key);
        let raw = std::fs::read_to_string(&path).unwrap();
        assert!(raw.starts_with(STORE_FORMAT), "records are written as v3");
        // Rewrite the banner to v2 — everything after it is unchanged, which
        // is exactly what a store written by the previous release looks like.
        let downgraded = raw.replacen(STORE_FORMAT, STORE_FORMAT_V2, 1);
        assert_ne!(raw, downgraded);
        std::fs::write(&path, downgraded).unwrap();
        match store.lookup(key) {
            StoreLookup::Hit(result) => assert_eq!(result.cell, key),
            other => panic!("expected a hit on the v2 record: {other:?}"),
        }
        // Certificate records did not exist before v3: a v2 banner on one
        // is a format rejection, not forward compatibility.
        let check = crate::check::CheckSpec::new(
            crate::family::TopologyFamily::Ring,
            3,
            gdp_algorithms::AlgorithmKind::Gdp1,
        );
        crate::check::run_check_cached(&check, &store, false).unwrap();
        let (fingerprint, cert_key) = (check.store_fingerprint(), check.cert_key());
        let path = store.path::<StoredCheck>(fingerprint, &cert_key);
        let raw = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, raw.replacen(STORE_FORMAT, STORE_FORMAT_V2, 1)).unwrap();
        assert!(matches!(
            store.read::<StoredCheck>(fingerprint, &cert_key),
            Lookup::Quarantined { reason: "format" }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record from a *future* store format is rejected loudly —
    /// surfaced as `Unsupported`, never quarantined as if it were corrupt:
    /// the bytes are presumably fine, this build just cannot verify them.
    #[test]
    fn future_version_records_are_rejected_loudly_not_quarantined() {
        let (_, store, dir) = completed_store("future_version");
        let key = "ring/n4/GDP1";
        let path = store.record_path(key);
        let raw = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, raw.replacen(STORE_FORMAT, "gdp-cell-store v9", 1)).unwrap();
        match store.lookup(key) {
            StoreLookup::Unsupported { version } => assert_eq!(version, 9),
            other => panic!("expected Unsupported: {other:?}"),
        }
        // The record is left in place for the newer build that wrote it...
        assert!(path.is_file(), "future-version record must not be deleted");
        // ...and the quarantine stays empty: nothing was condemned.
        let quarantined = std::fs::read_dir(dir.join("quarantine")).unwrap().count();
        assert_eq!(quarantined, 0);
        // A merge refuses the store outright rather than reporting the cell
        // as missing.
        let spec = test_spec("future_version");
        let stores = [CellStore::open(&dir, &spec, None).unwrap()];
        match merge_stores(&spec, &stores) {
            Err(MergeError::Unsupported { cell, version, .. }) => {
                assert_eq!(cell, key);
                assert_eq!(version, 9);
            }
            other => panic!("expected MergeError::Unsupported: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `gc_store` retires exactly the records whose spec context matches no
    /// manifest line — and `--dry-run` only counts, never deletes.
    #[test]
    fn gc_retires_unmatched_specs_and_dry_run_deletes_nothing() {
        let spec_a = test_spec("gc_keep");
        let spec_b = test_spec("gc_drop").with_trials(7);
        let dir = temp_store_dir("gc");
        for spec in [&spec_a, &spec_b] {
            let store = CellStore::open(&dir, spec, None).unwrap();
            run_sweep_durable(
                spec,
                &SweepOptions::quiet(),
                Some(&store),
                true,
                None,
                |_| {},
            )
            .unwrap();
        }
        let manifest = vec![spec_a.store_context(None)];

        let dry = gc_store(&dir, &manifest, true).unwrap();
        assert_eq!((dry.retained, dry.retired), (4, 4));
        assert!(dry.dry_run);
        assert!(dry.retired_bytes > 0);
        let store_b = CellStore::open(&dir, &spec_b, None).unwrap();
        assert!(
            matches!(store_b.lookup("ring/n4/GDP1"), StoreLookup::Hit(_)),
            "a dry run must not delete anything"
        );

        let report = gc_store(&dir, &manifest, false).unwrap();
        assert_eq!((report.retained, report.retired), (4, 4));
        assert_eq!(report.retired_notes, 1, "spec B's context note goes too");
        assert!(!report.dry_run);
        let store_a = CellStore::open(&dir, &spec_a, None).unwrap();
        assert!(matches!(
            store_a.lookup("ring/n4/GDP1"),
            StoreLookup::Hit(_)
        ));
        let store_b = CellStore::open(&dir, &spec_b, None).unwrap();
        assert!(matches!(
            store_b.lookup("ring/n4/GDP1"),
            StoreLookup::Absent
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Compaction rewrites live records byte-for-byte, drops quarantine
    /// debris and stale tmp files, and leaves every answer intact.
    #[test]
    fn compaction_drops_debris_and_preserves_every_answer() {
        let (spec, store, dir) = completed_store("compact");
        // Manufacture debris: one quarantined record, one stale tmp file in
        // each scanned directory, and one unreadable (invalid) record.
        let key = "ring/n4/GDP1";
        let path = store.record_path(key);
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        assert!(matches!(store.lookup(key), StoreLookup::Quarantined { .. }));
        std::fs::write(dir.join("cells").join("x.tmp.1.2"), b"torn write").unwrap();
        std::fs::write(dir.join("certs").join("y.tmp.3.4"), b"torn write").unwrap();
        std::fs::write(dir.join("cells").join("junk-0000.cell"), b"not a record").unwrap();

        let report = compact_store(&dir).unwrap();
        assert_eq!(report.live, 3, "4 cells minus the one quarantined");
        assert_eq!(report.dropped_invalid, 1);
        assert_eq!(report.dropped_quarantine, 1);
        assert_eq!(report.dropped_tmp, 2);
        assert_eq!(report.notes, 1);

        // The swap left no scaffolding behind…
        assert!(!sibling_dir(&dir, ".compact-tmp").unwrap().exists());
        assert!(!sibling_dir(&dir, ".pre-compact").unwrap().exists());
        // …and the surviving records still answer; the compacted-away cell
        // is Absent (recomputable), never a trusted wrong answer.
        let store = CellStore::open(&dir, &spec, None).unwrap();
        assert!(matches!(store.lookup(key), StoreLookup::Absent));
        assert!(matches!(store.lookup("star/n4/GDP1"), StoreLookup::Hit(_)));
        assert_eq!(
            std::fs::read_dir(dir.join("quarantine")).unwrap().count(),
            0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Compaction refuses a store holding records from a newer format:
    /// rewriting what it cannot verify could silently destroy valid work.
    #[test]
    fn compaction_refuses_future_version_records() {
        let (_, store, dir) = completed_store("compact_future");
        let path = store.record_path("ring/n4/GDP1");
        let raw = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, raw.replacen(STORE_FORMAT, "gdp-cell-store v8", 1)).unwrap();
        let err = compact_store(&dir).unwrap_err();
        assert!(err.to_string().contains("newer than this build"), "{err}");
        // The original store is untouched by the refusal.
        assert!(path.is_file());
        assert!(!sibling_dir(&dir, ".compact-tmp").unwrap().exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
