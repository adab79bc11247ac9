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
//! store holds a second record kind — **certificate records** under
//! `certs/`, keyed by *(check-spec fingerprint, cell key @ topology seed)*
//! and carrying the full certificate bytes plus the derived
//! verdict/progress-probability/state-count columns — under the same
//! checksum, quarantine and atomic-write discipline as MC cells.
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
//! Validation layers, in order:
//!
//! 1. the format banner (`gdp-cell-store v3`; v2 banners on MC cell
//!    records are still accepted — the cell layout did not change — while
//!    a version *newer* than this build is **rejected loudly** as
//!    [`StoreLookup::Unsupported`], never quarantined: the record is
//!    presumed valid to a newer build and left untouched);
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

use crate::check::{decode_check_payload, encode_check_payload, StoredCheck};
use crate::report::{decode_cell_payload, encode_cell_payload, SweepReport};
use crate::runner::CellResult;
use crate::spec::ScenarioSpec;
use gdp_mcheck::Certificate;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The format banner every record starts with; bump the version when the
/// record layout or payload schema changes and old records become
/// untrustworthy.  v3 added certificate records (`kind certificate`
/// headers under `certs/`); the MC cell layout is unchanged, so v2 cell
/// banners are still accepted.  v2 added the `first_meal_p50/p90/p99`
/// payload fields; v1 records quarantine and recompute, by design.
/// Versions *newer* than [`STORE_VERSION`] are rejected loudly
/// ([`StoreLookup::Unsupported`]), never quarantined.
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

/// The outcome of one store lookup.
#[derive(Debug)]
pub enum StoreLookup {
    /// No record exists for this cell.
    Absent,
    /// A fully verified record was found.
    Hit(Box<CellResult>),
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

/// The outcome of one certificate-record lookup.
#[derive(Debug)]
pub enum CertLookup {
    /// No certificate record exists for this key.
    Absent,
    /// A fully verified certificate record was found.
    Hit(Box<StoredCheck>),
    /// A record existed but failed validation; it has been moved to the
    /// quarantine directory and the check must be recomputed.
    Quarantined {
        /// Which validation layer rejected it.
        reason: &'static str,
    },
    /// The record's format version is newer than this build; see
    /// [`StoreLookup::Unsupported`].
    Unsupported {
        /// The record's declared format version.
        version: u32,
    },
}

/// Why a record was rejected: either it must be quarantined, or it belongs
/// to a format version newer than this build and must be left alone.
enum RecordReject {
    Quarantine(&'static str),
    Unsupported(u32),
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
    cells_dir: PathBuf,
    certs_dir: PathBuf,
    quarantine_dir: PathBuf,
    fingerprint: u64,
    swept_tmp: u64,
}

impl CellStore {
    /// Opens (creating if needed) the store at `dir` for the given spec and
    /// exact-check budget, and records the spec's store context alongside
    /// the records for debuggability.
    ///
    /// Opening also **sweeps stale temp files**: a SIGKILLed writer leaves
    /// its `*.tmp.*` scratch file behind (invisible to lookups, but
    /// accumulating forever), so every open deletes them.  A *live* writer
    /// whose temp file is swept out from under it is still safe: its
    /// rename fails with `NotFound`, and the write starts over with a fresh
    /// temp file.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and context-write I/O errors.
    pub fn open(
        dir: impl AsRef<Path>,
        spec: &ScenarioSpec,
        exact_check: Option<usize>,
    ) -> std::io::Result<CellStore> {
        let context = spec.store_context(exact_check);
        let fingerprint = stable_digest64(context.as_bytes());
        let store = CellStore::open_with_fingerprint(dir, fingerprint)?;
        // A per-fingerprint context note: deterministic bytes, atomically
        // written, so concurrent shards racing on it are harmless.
        store.note_context("spec", fingerprint, &context)?;
        Ok(store)
    }

    /// Opens (creating if needed) the store at `dir` **without** a sweep
    /// spec.  A bare handle addresses MC cell records under the null
    /// fingerprint, so it is only meant for certificate records (whose
    /// methods take an explicit check fingerprint) and for lifecycle
    /// tooling — `gdp check --store`, `gdp store gc`, `gdp store compact`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation I/O errors.
    pub fn open_bare(dir: impl AsRef<Path>) -> std::io::Result<CellStore> {
        CellStore::open_with_fingerprint(dir, 0)
    }

    fn open_with_fingerprint(
        dir: impl AsRef<Path>,
        fingerprint: u64,
    ) -> std::io::Result<CellStore> {
        let root = dir.as_ref().to_path_buf();
        let cells_dir = root.join("cells");
        let certs_dir = root.join("certs");
        let quarantine_dir = root.join("quarantine");
        std::fs::create_dir_all(&cells_dir)?;
        std::fs::create_dir_all(&certs_dir)?;
        std::fs::create_dir_all(&quarantine_dir)?;
        let swept_tmp = sweep_stale_tmp_files(&root)
            + sweep_stale_tmp_files(&cells_dir)
            + sweep_stale_tmp_files(&certs_dir);
        Ok(CellStore {
            root,
            cells_dir,
            certs_dir,
            quarantine_dir,
            fingerprint,
            swept_tmp,
        })
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
    /// (leftovers of SIGKILLed writers; see [`open`](Self::open)).
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
        let address = stable_digest64(format!("{:016x}|{cell_key}", self.fingerprint).as_bytes());
        self.cells_dir
            .join(format!("{}-{address:016x}.cell", sanitize_key(cell_key)))
    }

    /// The certificate-record path for `cert_key` under the given check
    /// fingerprint.  Certificate addresses mix in a `|cert|` tag so they
    /// can never collide with an MC cell address even under equal
    /// fingerprints and keys.
    #[must_use]
    pub fn cert_record_path(&self, check_fingerprint: u64, cert_key: &str) -> PathBuf {
        let address =
            stable_digest64(format!("{check_fingerprint:016x}|cert|{cert_key}").as_bytes());
        self.certs_dir
            .join(format!("{}-{address:016x}.cert", sanitize_key(cert_key)))
    }

    /// Persists one completed cell **atomically**: the full record is
    /// written to a temp file in the same directory and renamed into place,
    /// so a crash at any instant leaves either the previous state or the
    /// complete new record — never a half-written one under the final name.
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
        let payload = encode_cell_payload(result);
        let record = format!(
            "{STORE_FORMAT}\nspec {:016x}\ncell {}\npayload {} {:016x}\n---\n{payload}",
            self.fingerprint,
            result.cell,
            payload.len(),
            stable_digest64(payload.as_bytes()),
        );
        let path = self.record_path(&result.cell);
        save_converging(&path, &record, &result.cell, &|existing| {
            verify_record(existing, self.fingerprint, &result.cell).is_ok()
        })?;
        Ok(path)
    }

    /// Persists one check's certificates as a certificate record, under the
    /// same atomic-write and concurrent-writer convergence discipline as
    /// [`save`](Self::save).  The record's verdict/progress-probability/
    /// state-count columns are derived from `certificates` by the payload
    /// codec itself, so they can never disagree with the certificate bytes.
    ///
    /// # Errors
    ///
    /// As for [`save`](Self::save): I/O errors, plus `InvalidData` when a
    /// concurrent writer deposited a valid record with different bytes
    /// (a determinism violation — certificates are byte-reproducible).
    pub fn save_certificates(
        &self,
        check_fingerprint: u64,
        cert_key: &str,
        cell: &str,
        certificates: &[Certificate],
    ) -> std::io::Result<PathBuf> {
        let payload = encode_check_payload(cert_key, cell, certificates);
        let record = format!(
            "{STORE_FORMAT}\nkind certificate\nspec {check_fingerprint:016x}\ncell {cert_key}\n\
             payload {} {:016x}\n---\n{payload}",
            payload.len(),
            stable_digest64(payload.as_bytes()),
        );
        let path = self.cert_record_path(check_fingerprint, cert_key);
        save_converging(&path, &record, cert_key, &|existing| {
            verify_cert_record(existing, check_fingerprint, cert_key).is_ok()
        })?;
        Ok(path)
    }

    /// Looks `cell_key` up, verifying every integrity layer; invalid
    /// records are quarantined (moved, tagged with the reason) and reported
    /// as [`StoreLookup::Quarantined`] so the caller recomputes.
    #[must_use]
    pub fn lookup(&self, cell_key: &str) -> StoreLookup {
        let path = self.record_path(cell_key);
        let raw = match std::fs::read_to_string(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return StoreLookup::Absent,
            // Unreadable (permissions, non-UTF-8, ...): treat as invalid.
            Err(_) => {
                self.quarantine(&path, "unreadable");
                return StoreLookup::Quarantined {
                    reason: "unreadable",
                };
            }
        };
        match verify_record(&raw, self.fingerprint, cell_key) {
            Ok(result) => StoreLookup::Hit(Box::new(result)),
            Err(RecordReject::Unsupported(version)) => StoreLookup::Unsupported { version },
            Err(RecordReject::Quarantine(reason)) => {
                self.quarantine(&path, reason);
                StoreLookup::Quarantined { reason }
            }
        }
    }

    /// Looks up the certificate record for `(check_fingerprint, cert_key)`
    /// with the same integrity layers and quarantine discipline as
    /// [`lookup`](Self::lookup).
    #[must_use]
    pub fn lookup_certificates(&self, check_fingerprint: u64, cert_key: &str) -> CertLookup {
        let path = self.cert_record_path(check_fingerprint, cert_key);
        let raw = match std::fs::read_to_string(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CertLookup::Absent,
            Err(_) => {
                self.quarantine(&path, "unreadable");
                return CertLookup::Quarantined {
                    reason: "unreadable",
                };
            }
        };
        match verify_cert_record(&raw, check_fingerprint, cert_key) {
            Ok(stored) => CertLookup::Hit(Box::new(stored)),
            Err(RecordReject::Unsupported(version)) => CertLookup::Unsupported { version },
            Err(RecordReject::Quarantine(reason)) => {
                self.quarantine(&path, reason);
                CertLookup::Quarantined { reason }
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

/// The shared atomic-write-plus-convergence protocol behind both record
/// kinds: write atomically; on failure, an already-present byte-identical
/// record means a concurrent writer won harmlessly, while a *valid* record
/// with different bytes is a determinism violation surfaced as
/// `InvalidData`.
fn save_converging(
    path: &Path,
    record: &str,
    key: &str,
    is_valid: &dyn Fn(&str) -> bool,
) -> std::io::Result<()> {
    match write_atomically(path, record.as_bytes()) {
        Ok(()) => Ok(()),
        Err(e) => match std::fs::read_to_string(path) {
            // A concurrent writer finished first.  Identical bytes:
            // converged, the record is in place, nothing to do.
            Ok(existing) if existing == record => Ok(()),
            // A *valid* record that disagrees is a determinism
            // violation — surface it, never shrug it off.
            Ok(existing) if is_valid(&existing) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "concurrent writer stored different bytes for cell {key} \
                     (determinism violation)"
                ),
            )),
            _ => Err(e),
        },
    }
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

/// The verified pieces shared by both record kinds: spec fingerprint, cell
/// key and checksummed payload.
struct VerifiedHeader<'a> {
    fingerprint: u64,
    cell_key: &'a str,
    payload: &'a str,
}

/// Runs the header-level validation layers over one raw record of the
/// given kind: banner version, optional `kind` line, spec fingerprint
/// line, cell-key line, payload length and FNV-1a checksum.  Payload
/// decoding and key cross-checks stay with the per-kind verifiers.
fn verify_header<'a>(
    raw: &'a str,
    expect_kind: Option<&str>,
    oldest_accepted: u32,
) -> Result<VerifiedHeader<'a>, RecordReject> {
    use RecordReject::Quarantine;
    let Some((header, payload)) = raw.split_once("\n---\n") else {
        return Err(Quarantine("truncated-header"));
    };
    let mut lines = header.lines();
    match lines.next().and_then(banner_version) {
        Some(version) if version > STORE_VERSION => return Err(RecordReject::Unsupported(version)),
        Some(version) if version >= oldest_accepted => {}
        _ => return Err(Quarantine("format")),
    }
    if let Some(kind) = expect_kind {
        let Some(kind_line) = lines.next().and_then(|l| l.strip_prefix("kind ")) else {
            return Err(Quarantine("format"));
        };
        if kind_line != kind {
            return Err(Quarantine("format"));
        }
    }
    let Some(spec_line) = lines.next().and_then(|l| l.strip_prefix("spec ")) else {
        return Err(Quarantine("format"));
    };
    let Ok(fingerprint) = u64::from_str_radix(spec_line, 16) else {
        return Err(Quarantine("format"));
    };
    let Some(cell_key) = lines.next().and_then(|l| l.strip_prefix("cell ")) else {
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
    Ok(VerifiedHeader {
        fingerprint,
        cell_key,
        payload,
    })
}

/// Runs every validation layer over one raw MC cell record.  Returns the
/// decoded result or the reason the record must be rejected.  v2 banners
/// are accepted — the cell layout is unchanged since v2.
fn verify_record(raw: &str, fingerprint: u64, cell_key: &str) -> Result<CellResult, RecordReject> {
    use RecordReject::Quarantine;
    let header = verify_header(raw, None, 2)?;
    if header.fingerprint != fingerprint {
        return Err(Quarantine("stale-spec"));
    }
    if header.cell_key != cell_key {
        return Err(Quarantine("cell-key"));
    }
    let result = decode_cell_payload(header.payload).map_err(|_| Quarantine("payload"))?;
    if result.cell != cell_key {
        return Err(Quarantine("cell-key"));
    }
    Ok(result)
}

/// Runs every validation layer over one raw certificate record.  v3 only —
/// certificate records did not exist before v3, so an older banner here is
/// a `format` rejection, not forward compatibility.
fn verify_cert_record(
    raw: &str,
    check_fingerprint: u64,
    cert_key: &str,
) -> Result<StoredCheck, RecordReject> {
    use RecordReject::Quarantine;
    let header = verify_header(raw, Some("certificate"), STORE_VERSION)?;
    if header.fingerprint != check_fingerprint {
        return Err(Quarantine("stale-spec"));
    }
    if header.cell_key != cert_key {
        return Err(Quarantine("cell-key"));
    }
    let stored = decode_check_payload(header.payload).map_err(|_| Quarantine("payload"))?;
    if stored.key != cert_key {
        return Err(Quarantine("cell-key"));
    }
    Ok(stored)
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
            } => write!(
                f,
                "store #{} holds a record for cell {cell} with store format v{version}, \
                 newer than this build (v{STORE_VERSION}) — upgrade gdp or move the \
                 record aside",
                store + 1,
            ),
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
    for sub in ["cells", "certs"] {
        let Ok(entries) = std::fs::read_dir(dir.join(sub)) else {
            continue;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let is_file = entry.file_type().map(|t| t.is_file()).unwrap_or(false);
            if !is_file || name.contains(".tmp.") {
                continue;
            }
            let path = entry.path();
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
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let is_file = entry.file_type().map(|t| t.is_file()).unwrap_or(false);
            let Some(fingerprint) = context_note_fingerprint(&name) else {
                continue;
            };
            if is_file && !retained_fingerprints.contains(&fingerprint) {
                report.retired_notes += 1;
                report.retired_bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
                if !dry_run {
                    std::fs::remove_file(entry.path())?;
                }
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
/// key is known a priori: the header layers run as usual, the payload must
/// decode and cross-check its embedded key, and the filename must be
/// exactly the address the record's own (fingerprint, key) pair derives —
/// so mis-addressed records never survive a compaction.
fn verify_compactable(
    raw: &str,
    file_name: &str,
    kind: Option<&str>,
    oldest_accepted: u32,
) -> Result<(), RecordReject> {
    use RecordReject::Quarantine;
    let header = verify_header(raw, kind, oldest_accepted)?;
    let (key, expected_name) = match kind {
        None => {
            let result = decode_cell_payload(header.payload).map_err(|_| Quarantine("payload"))?;
            let address = stable_digest64(
                format!("{:016x}|{}", header.fingerprint, header.cell_key).as_bytes(),
            );
            (
                result.cell,
                format!("{}-{address:016x}.cell", sanitize_key(header.cell_key)),
            )
        }
        Some(_) => {
            let stored = decode_check_payload(header.payload).map_err(|_| Quarantine("payload"))?;
            let address = stable_digest64(
                format!("{:016x}|cert|{}", header.fingerprint, header.cell_key).as_bytes(),
            );
            (
                stored.key,
                format!("{}-{address:016x}.cert", sanitize_key(header.cell_key)),
            )
        }
    };
    if key != header.cell_key || file_name != expected_name {
        return Err(Quarantine("cell-key"));
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
    std::fs::create_dir_all(tmp.join("cells"))?;
    std::fs::create_dir_all(tmp.join("certs"))?;
    std::fs::create_dir_all(tmp.join("quarantine"))?;
    for (sub, kind, oldest) in [
        ("cells", None, 2),
        ("certs", Some("certificate"), STORE_VERSION),
    ] {
        let Ok(entries) = std::fs::read_dir(dir.join(sub)) else {
            continue;
        };
        let mut names: Vec<std::ffi::OsString> = entries
            .flatten()
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .map(|e| e.file_name())
            .collect();
        names.sort();
        for name in names {
            let lossy = name.to_string_lossy().into_owned();
            let path = dir.join(sub).join(&name);
            if lossy.contains(".tmp.") {
                report.dropped_tmp += 1;
                continue;
            }
            let Ok(raw) = std::fs::read_to_string(&path) else {
                report.dropped_invalid += 1;
                continue;
            };
            match verify_compactable(&raw, &lossy, kind, oldest) {
                Ok(()) => {}
                Err(RecordReject::Unsupported(version)) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "record {} has store format v{version}, newer than this build \
                             (v{STORE_VERSION}) — refusing to compact what it cannot verify",
                            path.display()
                        ),
                    ));
                }
                Err(RecordReject::Quarantine(_)) => {
                    report.dropped_invalid += 1;
                    continue;
                }
            }
            let out = tmp.join(sub).join(&name);
            std::fs::write(&out, raw.as_bytes())?;
            let reread = std::fs::read_to_string(&out)?;
            if reread != raw {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("round-trip mismatch rewriting {}", out.display()),
                ));
            }
            report.live += 1;
        }
    }
    if let Ok(entries) = std::fs::read_dir(dir.join("quarantine")) {
        report.dropped_quarantine = entries.flatten().count() as u64;
    }
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let lossy = name.to_string_lossy().into_owned();
            if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                continue;
            }
            if lossy.contains(".tmp.") {
                report.dropped_tmp += 1;
                continue;
            }
            // Context notes — and any root file a future layout adds — are
            // carried over verbatim, round-trip-verified like records.
            let raw = std::fs::read(entry.path())?;
            let out = tmp.join(&name);
            std::fs::write(&out, &raw)?;
            if std::fs::read(&out)? != raw {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("round-trip mismatch rewriting {}", out.display()),
                ));
            }
            if lossy.ends_with(".context") {
                report.notes += 1;
            }
        }
    }
    Ok(report)
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
    /// layout, so rejecting v2 cells would throw away valid work.
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
