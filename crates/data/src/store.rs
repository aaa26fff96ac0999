//! The dense row-group store: fixed-size row chunks, an on-disk binary
//! format with an indptr chunk directory, and an LRU resident set.
//!
//! A [`ChunkedStore`] holds `rows × cols` of `f32` split into chunks of
//! `chunk_rows` rows. Two backings:
//!
//! * **Memory** — the chunks are materialised `Tensor`s (built by
//!   [`ChunkedStore::from_tensor`]); every chunk is always resident.
//! * **File** — chunks live in a std-only binary file written by
//!   [`StoreWriter`] and are paged in on demand. At most `budget`
//!   chunks (the argument to [`ChunkedStore::open_with_budget`]) stay
//!   resident; loading past the budget evicts the least-recently-used
//!   chunk. Evicted buffers are kept on a spare list so steady-state
//!   streaming reuses allocations instead of touching the heap.
//!
//! The file layout (all integers little-endian):
//!
//! ```text
//! [ magic "DCSTORE1" | rows u64 | cols u64 | chunk_rows u64 |
//!   n_chunks u64 | dir_off u64 ]                       48-byte header
//! [ chunk 0 payload | chunk 1 payload | ... ]          f32 LE row-major
//! [ indptr: (n_chunks + 1) × u64 ]                     at dir_off
//! ```
//!
//! `indptr[c]..indptr[c+1]` is the absolute byte range of chunk `c`, so
//! a chunk load is one seek plus one exact read — the same directory
//! shape the sparse [`Csr`](crate::Csr) family persists with.

use dc_tensor::Tensor;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

static CHUNK_HIT: dc_obs::Counter = dc_obs::Counter::new("data.chunk.hit");
static CHUNK_MISS: dc_obs::Counter = dc_obs::Counter::new("data.chunk.miss");
static CHUNK_EVICT: dc_obs::Counter = dc_obs::Counter::new("data.chunk.evict");

/// Magic bytes opening every dense store file.
pub const STORE_MAGIC: &[u8; 8] = b"DCSTORE1";
const HEADER_BYTES: u64 = 48;

/// Chunk-cache effectiveness counters for one store (the global
/// `data.chunk.*` dc-obs counters aggregate the same events across all
/// stores).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChunkCacheStats {
    /// Chunk requests answered from the resident set.
    pub hits: u64,
    /// Chunk requests that had to read the file.
    pub misses: u64,
    /// Resident chunks dropped to stay within the budget.
    pub evicts: u64,
    /// Chunks currently resident.
    pub resident: usize,
    /// The resident-chunk budget (`usize::MAX` = unbounded).
    pub budget: usize,
}

enum Backing {
    /// Pre-split chunks; always resident, the budget is ignored.
    Mem(Vec<Tensor>),
    /// Chunks paged in from the indptr-directed file on demand.
    File {
        file: File,
        /// Absolute byte offset of each chunk; `len == n_chunks + 1`.
        indptr: Vec<u64>,
    },
}

/// A dense matrix stored as fixed-size row chunks, streamable from disk
/// under a resident-chunk budget.
pub struct ChunkedStore {
    rows: usize,
    cols: usize,
    chunk_rows: usize,
    backing: Backing,
    /// File backing only: the resident chunk per slot.
    resident: Vec<Option<Tensor>>,
    /// LRU stamps parallel to `resident`.
    stamp: Vec<u64>,
    tick: u64,
    resident_count: usize,
    budget: usize,
    /// Evicted `f32` buffers kept for reuse.
    spare: Vec<Vec<f32>>,
    /// Scratch byte buffer for chunk reads.
    io_buf: Vec<u8>,
    hits: u64,
    misses: u64,
    evicts: u64,
}

impl ChunkedStore {
    /// Split an in-memory tensor into `chunk_rows`-row chunks. Every
    /// chunk is resident; the budget does not apply.
    pub fn from_tensor(x: &Tensor, chunk_rows: usize) -> Self {
        assert!(chunk_rows > 0, "ChunkedStore: chunk_rows must be >= 1");
        let n_chunks = x.rows.div_ceil(chunk_rows);
        let mut chunks = Vec::with_capacity(n_chunks);
        for c in 0..n_chunks {
            let base = c * chunk_rows;
            let len = chunk_rows.min(x.rows - base);
            let mut t = Tensor::zeros(len, x.cols);
            t.data
                .copy_from_slice(&x.data[base * x.cols..(base + len) * x.cols]);
            chunks.push(t);
        }
        ChunkedStore {
            rows: x.rows,
            cols: x.cols,
            chunk_rows,
            backing: Backing::Mem(chunks),
            resident: Vec::new(),
            stamp: Vec::new(),
            tick: 0,
            resident_count: 0,
            budget: usize::MAX,
            spare: Vec::new(),
            io_buf: Vec::new(),
            hits: 0,
            misses: 0,
            evicts: 0,
        }
    }

    /// Write `x` to `path` in the chunked store format.
    pub fn write(path: &Path, x: &Tensor, chunk_rows: usize) -> io::Result<()> {
        let mut w = StoreWriter::create(path, x.cols, chunk_rows)?;
        w.push_rows(x)?;
        w.finish()
    }

    /// Open a store file keeping at most `budget` chunks resident
    /// (clamped to at least 1; `usize::MAX` keeps every chunk resident
    /// after first touch).
    pub fn open_with_budget(path: &Path, budget: usize) -> io::Result<Self> {
        let mut file = File::open(path)?;
        let mut header = [0u8; HEADER_BYTES as usize];
        file.read_exact(&mut header)?;
        if &header[..8] != STORE_MAGIC {
            return Err(bad_data("not a dc-data store file (bad magic)"));
        }
        let u = |i: usize| u64::from_le_bytes(header[i..i + 8].try_into().expect("8 bytes"));
        let (rows, cols, chunk_rows, n_chunks, dir_off) = (
            u(8) as usize,
            u(16) as usize,
            u(24) as usize,
            u(32) as usize,
            u(40),
        );
        if chunk_rows == 0 || n_chunks != rows.div_ceil(chunk_rows.max(1)) {
            return Err(bad_data("store header is inconsistent"));
        }
        // The header is untrusted: the directory it describes must fit
        // between `dir_off` and the end of the file before anything is
        // allocated for it.
        let file_len = file.metadata()?.len();
        let dir_bytes = (n_chunks as u64)
            .checked_add(1)
            .and_then(|n| n.checked_mul(8))
            .filter(|&b| dir_off.checked_add(b).is_some_and(|end| end <= file_len))
            .ok_or_else(|| bad_data("store chunk directory does not fit in the file"))?;
        file.seek(SeekFrom::Start(dir_off))?;
        let mut dir = vec![0u8; dir_bytes as usize];
        file.read_exact(&mut dir)?;
        let indptr: Vec<u64> = dir
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .collect();
        for c in 0..n_chunks {
            let len = chunk_rows.min(rows - c * chunk_rows);
            let expect = (len as u64)
                .checked_mul(cols as u64)
                .and_then(|n| n.checked_mul(4));
            if expect.is_none() || indptr[c + 1].checked_sub(indptr[c]) != expect {
                return Err(bad_data("store chunk directory is inconsistent"));
            }
        }
        Ok(ChunkedStore {
            rows,
            cols,
            chunk_rows,
            backing: Backing::File { file, indptr },
            resident: (0..n_chunks).map(|_| None).collect(),
            stamp: vec![0; n_chunks],
            tick: 0,
            resident_count: 0,
            budget: budget.max(1),
            spare: Vec::new(),
            io_buf: Vec::new(),
            hits: 0,
            misses: 0,
            evicts: 0,
        })
    }

    /// Total row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Rows per full chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        match &self.backing {
            Backing::Mem(chunks) => chunks.len(),
            Backing::File { indptr, .. } => indptr.len() - 1,
        }
    }

    /// First row of chunk `c`.
    pub fn chunk_base(&self, c: usize) -> usize {
        c * self.chunk_rows
    }

    /// Rows in chunk `c` (the final chunk may be short).
    pub fn chunk_len(&self, c: usize) -> usize {
        self.chunk_rows.min(self.rows - self.chunk_base(c))
    }

    /// Chunk-cache counters for this store.
    pub fn cache_stats(&self) -> ChunkCacheStats {
        ChunkCacheStats {
            hits: self.hits,
            misses: self.misses,
            evicts: self.evicts,
            resident: match &self.backing {
                Backing::Mem(chunks) => chunks.len(),
                Backing::File { .. } => self.resident_count,
            },
            budget: self.budget,
        }
    }

    /// Chunk `c` as a tensor, paging it in (and possibly evicting the
    /// least-recently-used resident chunk) when file-backed.
    pub fn chunk(&mut self, c: usize) -> &Tensor {
        self.ensure_resident(c);
        match &self.backing {
            Backing::Mem(chunks) => &chunks[c],
            Backing::File { .. } => self.resident[c].as_ref().expect("chunk just loaded"),
        }
    }

    /// Row `r` as a slice (pages in the owning chunk if needed).
    pub fn row(&mut self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "row {r} out of {}", self.rows);
        let c = r / self.chunk_rows;
        let local = r - self.chunk_base(c);
        self.chunk(c).row_slice(local)
    }

    /// Visit every chunk in order: `f(first_row, chunk)`. File-backed
    /// stores stream under the budget, so this walks corpora larger
    /// than memory.
    pub fn visit_chunks(&mut self, mut f: impl FnMut(usize, &Tensor)) {
        for c in 0..self.n_chunks() {
            let base = self.chunk_base(c);
            f(base, self.chunk(c));
        }
    }

    /// Stream every row through `f(row_index, row)`, fanning the rows
    /// of each resident chunk out over the shared worker pool. `grain`
    /// is the minimum rows per pool task (clamped to ≥ 1).
    pub fn par_visit_rows(&mut self, grain: usize, f: impl Fn(usize, &[f32]) + Sync) {
        self.visit_chunks(|base, t| {
            dc_tensor::kernel::parallel_for(t.rows, grain.max(1), |range| {
                for r in range {
                    f(base + r, t.row_slice(r));
                }
            });
        });
    }

    /// Materialise the full matrix (test/debug helper; defeats the
    /// point of streaming for large stores).
    pub fn to_tensor(&mut self) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        let cols = self.cols;
        self.visit_chunks(|base, t| {
            out.data[base * cols..base * cols + t.data.len()].copy_from_slice(&t.data);
        });
        out
    }

    fn ensure_resident(&mut self, c: usize) {
        let Backing::File { file, indptr } = &mut self.backing else {
            return; // memory chunks are always resident
        };
        self.tick += 1;
        if self.resident[c].is_some() {
            self.hits += 1;
            CHUNK_HIT.incr();
            self.stamp[c] = self.tick;
            return;
        }
        self.misses += 1;
        CHUNK_MISS.incr();
        while self.resident_count >= self.budget {
            let victim = self
                .stamp
                .iter()
                .enumerate()
                .filter(|&(i, _)| self.resident[i].is_some())
                .min_by_key(|&(_, &s)| s)
                .map(|(i, _)| i)
                .expect("resident_count > 0 implies a victim");
            let t = self.resident[victim].take().expect("victim resident");
            self.spare.push(t.data);
            self.resident_count -= 1;
            self.evicts += 1;
            CHUNK_EVICT.incr();
        }
        let len = self.chunk_rows.min(self.rows - c * self.chunk_rows);
        let bytes = (indptr[c + 1] - indptr[c]) as usize;
        self.io_buf.resize(bytes, 0);
        let mut f = &*file;
        f.seek(SeekFrom::Start(indptr[c]))
            .and_then(|_| f.read_exact(&mut self.io_buf))
            .expect("dc-data: chunk read failed");
        let mut data = self.spare.pop().unwrap_or_default();
        data.clear();
        data.reserve(len * self.cols);
        data.extend(
            self.io_buf
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes"))),
        );
        self.resident[c] = Some(Tensor::from_vec(len, self.cols, data));
        self.resident_count += 1;
        self.stamp[c] = self.tick;
    }
}

/// Streaming writer for the chunked store format; rows can exceed
/// memory since only header bookkeeping is retained.
pub struct StoreWriter {
    out: BufWriter<File>,
    cols: usize,
    chunk_rows: usize,
    rows: usize,
}

impl StoreWriter {
    /// Create `path` and reserve the header; rows stream in through
    /// [`StoreWriter::push_row`] / [`StoreWriter::push_rows`].
    pub fn create(path: &Path, cols: usize, chunk_rows: usize) -> io::Result<Self> {
        assert!(cols > 0, "StoreWriter: cols must be >= 1");
        assert!(chunk_rows > 0, "StoreWriter: chunk_rows must be >= 1");
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&[0u8; HEADER_BYTES as usize])?;
        Ok(StoreWriter {
            out,
            cols,
            chunk_rows,
            rows: 0,
        })
    }

    /// Append one row (must have exactly `cols` values).
    pub fn push_row(&mut self, row: &[f32]) -> io::Result<()> {
        assert_eq!(row.len(), self.cols, "StoreWriter: row width mismatch");
        for &v in row {
            self.out.write_all(&v.to_le_bytes())?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Append every row of `t`.
    pub fn push_rows(&mut self, t: &Tensor) -> io::Result<()> {
        for r in 0..t.rows {
            self.push_row(t.row_slice(r))?;
        }
        Ok(())
    }

    /// Rows written so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Write the chunk directory and header, and flush.
    pub fn finish(mut self) -> io::Result<()> {
        let n_chunks = self.rows.div_ceil(self.chunk_rows);
        let dir_off = HEADER_BYTES + (self.rows * self.cols * 4) as u64;
        // Dense fixed-size chunks make the directory arithmetic, but it
        // is persisted anyway: readers validate against it, and it is
        // the same indptr shape the CSR family uses.
        let mut off = HEADER_BYTES;
        for c in 0..=n_chunks {
            self.out.write_all(&off.to_le_bytes())?;
            if c < n_chunks {
                let len = self.chunk_rows.min(self.rows - c * self.chunk_rows);
                off += (len * self.cols * 4) as u64;
            }
        }
        let mut header = Vec::with_capacity(HEADER_BYTES as usize);
        header.extend_from_slice(STORE_MAGIC);
        for v in [
            self.rows as u64,
            self.cols as u64,
            self.chunk_rows as u64,
            n_chunks as u64,
            dir_off,
        ] {
            header.extend_from_slice(&v.to_le_bytes());
        }
        self.out.flush()?;
        let file = self.out.get_mut();
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        file.flush()
    }
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dc_data_store_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn file_round_trip_is_bitwise() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(37, 5, 1.0, &mut rng);
        let path = tmp("round_trip");
        ChunkedStore::write(&path, &x, 8).expect("write");
        let mut s = ChunkedStore::open_with_budget(&path, usize::MAX).expect("open");
        assert_eq!(s.rows(), 37);
        assert_eq!(s.cols(), 5);
        assert_eq!(s.n_chunks(), 5);
        assert_eq!(s.chunk_len(4), 5);
        let back = s.to_tensor();
        assert_eq!(back.data, x.data, "f32 bits must survive the file");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crafted_header_with_an_impossible_directory_is_rejected() {
        // A 48-byte file whose header is self-consistent (n_chunks ==
        // ceil(rows / chunk_rows)) but claims a directory of 2^60 (then
        // 2^40) entries, and one whose chunk byte size overflows u64.
        let header = |rows: u64, cols: u64, chunk_rows: u64, n_chunks: u64| {
            let mut h = STORE_MAGIC.to_vec();
            for v in [rows, cols, chunk_rows, n_chunks, HEADER_BYTES] {
                h.extend_from_slice(&v.to_le_bytes());
            }
            h
        };
        let mut overflowing = header(1, u64::MAX / 2, 1, 1);
        overflowing.extend_from_slice(&[0u8; 16]); // a two-entry directory
        let path = tmp("crafted_header");
        for bytes in [
            header(1 << 60, 4, 1, 1 << 60),
            header(1 << 40, 4, 1, 1 << 40),
            overflowing,
        ] {
            std::fs::write(&path, bytes).expect("write");
            let err = ChunkedStore::open_with_budget(&path, 2)
                .err()
                .expect("must reject");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_evicts_lru_and_counts() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn(40, 3, 1.0, &mut rng);
        let path = tmp("budget");
        ChunkedStore::write(&path, &x, 10).expect("write");
        let mut s = ChunkedStore::open_with_budget(&path, 2).expect("open");
        for c in 0..4 {
            s.chunk(c);
        }
        let st = s.cache_stats();
        assert_eq!(st.misses, 4);
        assert_eq!(st.evicts, 2);
        assert_eq!(st.resident, 2);
        // Chunk 3 is resident (most recent); touching it is a hit.
        s.chunk(3);
        assert_eq!(s.cache_stats().hits, 1);
        // Chunk 0 was evicted; rows still read correctly through reload.
        assert_eq!(s.row(0), &x.data[0..3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_store_matches_source() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(11, 4, 1.0, &mut rng);
        let mut s = ChunkedStore::from_tensor(&x, 4);
        assert_eq!(s.n_chunks(), 3);
        for r in 0..11 {
            assert_eq!(s.row(r), x.row_slice(r));
        }
        assert_eq!(s.to_tensor().data, x.data);
    }

    #[test]
    fn par_visit_rows_sees_every_row_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::randn(33, 2, 1.0, &mut rng);
        let mut s = ChunkedStore::from_tensor(&x, 7);
        let seen = AtomicU64::new(0);
        s.par_visit_rows(1, |r, row| {
            assert_eq!(row, x.row_slice(r));
            seen.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 33);
    }

    #[test]
    fn open_rejects_garbage() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a store file").expect("write");
        assert!(ChunkedStore::open_with_budget(&path, 1).is_err());
        std::fs::remove_file(&path).ok();
    }
}
