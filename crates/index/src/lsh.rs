//! Banded LSH candidate retrieval over bit-packed signatures: one
//! index for batch blocking and for the online service.
//!
//! The classic banding scheme (and the seed's): split each signature
//! into `bands` bands of `rows_per_band` bits; two items are candidates
//! when *any* band matches exactly. The seed materialized a
//! `HashMap<Vec<bool>, Vec<usize>>` per band and a `HashSet` of every
//! pair; here each band is a sorted `(key, item)` table of `u64` band
//! words, and [`LshIndex::for_each_pair`] streams each candidate pair
//! once, at the first step of its walk that finds it, holding no pair
//! set at all (the first-witness rule documented there).
//!
//! Each band's items live in two tiers:
//!
//! * a **sorted tier** — a `BandTable` (radix/packed-sorted,
//!   binary-searchable) over the items that were live at the last bulk
//!   build or [`LshIndex::compact`];
//! * an **overflow tier** — every item inserted since, kept as one
//!   shared append-only id list and sorted *at query time* into a small
//!   per-band `BandTable` (sorting only the overflow, not the world).
//!
//! Deletes are tombstones (`alive` bitmap) filtered during candidate
//! emission; [`LshIndex::compact`] folds the overflow and tombstones
//! back into fresh sorted tables (dc-serve runs it from a background
//! maintenance thread once the overflow crosses a threshold). A bulk
//! build ([`LshIndex::from_scores`] / [`LshIndex::build`]) lands every
//! item in the sorted tier, so a batch caller such as
//! `dc_er::LshBlocker` has no overflow to merge and no tombstone to
//! filter: it pays one `Vec<bool>` of length n and nothing per pair.
//!
//! Candidate generation merges three pair sources per band — within
//! each tier and across the two — plus multi-probe lookups against both
//! tiers, all through one walk over a table's equal-key runs. The
//! result is the **same pair set a fresh bulk build over the live items
//! would produce** (modulo the rebuild's renumbering): every live item
//! is in exactly one tier and signatures and probe orders come from the
//! same code whichever way an item arrived. `inc_equiv.rs` proves the
//! equality by proptest over insert/delete/compact interleavings.
//!
//! **Multi-probe**: with [`LshConfig::probes`] > 0, each item
//! additionally looks up, per band, the band keys obtained by flipping
//! its lowest-margin bits (the hyperplane scores closest to zero — the
//! bits most likely to disagree across near-duplicates). This recovers
//! pair completeness at fewer bands, trading a little probe work for a
//! smaller index.

use crate::sig::{sign_scores, SignatureSet};
use dc_core::{DcError, DcResult};
use dc_tensor::Tensor;
use std::ops::Range;

// Retrieval telemetry (dc-obs): candidate generation vs survival,
// multi-probe effectiveness and tier maintenance. Single load+branch
// each when DC_OBS is off.
static IDX_SIGNATURES: dc_obs::Counter = dc_obs::Counter::new("index.signatures");
static IDX_PROBE_LOOKUPS: dc_obs::Counter = dc_obs::Counter::new("index.probe_lookups");
static IDX_PROBE_CANDIDATES: dc_obs::Counter = dc_obs::Counter::new("index.probe_candidates");
static IDX_CANDIDATES_RAW: dc_obs::Counter = dc_obs::Counter::new("index.candidates_raw");
static IDX_CANDIDATES_UNIQUE: dc_obs::Counter = dc_obs::Counter::new("index.candidates_unique");
static IDX_BUILD: dc_obs::Hist = dc_obs::Hist::new("index.build");
static IDX_QUERY: dc_obs::Hist = dc_obs::Hist::new("index.query");
static INC_INSERTS: dc_obs::Counter = dc_obs::Counter::new("index.inc.inserts");
static INC_DELETES: dc_obs::Counter = dc_obs::Counter::new("index.inc.deletes");
static INC_COMPACTIONS: dc_obs::Counter = dc_obs::Counter::new("index.inc.compactions");
static INC_OVERFLOW: dc_obs::Gauge = dc_obs::Gauge::new("index.inc.overflow");

/// Banding/probing parameters for an [`LshIndex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LshConfig {
    /// Number of bands.
    pub bands: usize,
    /// Bits per band.
    pub rows_per_band: usize,
    /// Near-boundary bits probed per item per band (0 = exact banding).
    pub probes: usize,
}

impl LshConfig {
    /// Replace the band count (chainable builder; see DESIGN.md §10 for
    /// the `with_*` convention).
    pub fn with_bands(mut self, bands: usize) -> Self {
        self.bands = bands;
        self
    }

    /// Replace the bits-per-band width (chainable builder).
    pub fn with_rows_per_band(mut self, rows_per_band: usize) -> Self {
        self.rows_per_band = rows_per_band;
        self
    }

    /// Replace the multi-probe depth (chainable builder).
    pub fn with_probes(mut self, probes: usize) -> Self {
        self.probes = probes;
        self
    }
}

/// One band's inverted buckets: items sorted by band key, equal keys
/// adjacent. Multi-word keys (bands wider than 64 bits) compare
/// lexicographically word-by-word. Backs both the sorted tier and the
/// query-time overflow merges.
struct BandTable {
    /// `u64` words per key.
    stride: usize,
    /// Keys in sorted order, `stride` words each.
    keys: Vec<u64>,
    /// Item ids in key-sorted order; ties sort by item id, so bucket
    /// members are ascending and in-bucket pairs come out `(min, max)`.
    items: Vec<u32>,
}

impl BandTable {
    /// Build over an ascending list of the signature set's items (all
    /// of them for a bulk build, the live or overflow ids otherwise).
    /// Sort order: key ascending, item id ascending within a key.
    fn build(sigs: &SignatureSet, lo: usize, width: usize, members: &[u32]) -> BandTable {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members ascend");
        let n = members.len();
        if width <= 32 {
            // Bands of ≤ 32 bits pack `(key << 32) | item` into one u64
            // and sort comparator-free — same order as the general path.
            let mut packed: Vec<u64> = members
                .iter()
                .map(|&i| {
                    let mut k = [0u64; 1];
                    sigs.band_key_into(i as usize, lo, width, &mut k);
                    (k[0] << 32) | i as u64
                })
                .collect();
            if width <= 16 && n >= 64 {
                // Byte-wise LSB radix sort for narrow bands (the common
                // blocking regime): two stable passes with L1-resident
                // 256-entry counters. Stability on the initial
                // ascending-item order means equal keys keep ascending
                // item order.
                let mut tmp = vec![0u64; n];
                for pass in 0..2 {
                    let shift = 32 + pass * 8;
                    let mut counts = [0u32; 257];
                    for &p in &packed {
                        counts[(p >> shift & 0xff) as usize + 1] += 1;
                    }
                    for c in 1..257 {
                        counts[c] += counts[c - 1];
                    }
                    for &p in &packed {
                        let b = (p >> shift & 0xff) as usize;
                        tmp[counts[b] as usize] = p;
                        counts[b] += 1;
                    }
                    std::mem::swap(&mut packed, &mut tmp);
                }
            } else {
                packed.sort_unstable();
            }
            return BandTable {
                stride: 1,
                keys: packed.iter().map(|&p| p >> 32).collect(),
                items: packed.iter().map(|&p| p as u32).collect(),
            };
        }
        // General path: keys are indexed by *position* in `members`
        // (`raw[p]` is member p's key), sorted by (key, item id).
        let stride = width.div_ceil(64);
        let mut raw = vec![0u64; n * stride];
        for (p, &i) in members.iter().enumerate() {
            sigs.band_key_into(
                i as usize,
                lo,
                width,
                &mut raw[p * stride..(p + 1) * stride],
            );
        }
        let mut pos: Vec<u32> = (0..n as u32).collect();
        pos.sort_unstable_by(|&a, &b| {
            let ka = &raw[a as usize * stride..][..stride];
            let kb = &raw[b as usize * stride..][..stride];
            ka.cmp(kb)
                .then(members[a as usize].cmp(&members[b as usize]))
        });
        let mut keys = vec![0u64; n * stride];
        let mut items = Vec::with_capacity(n);
        for (r, &p) in pos.iter().enumerate() {
            keys[r * stride..(r + 1) * stride]
                .copy_from_slice(&raw[p as usize * stride..][..stride]);
            items.push(members[p as usize]);
        }
        BandTable {
            stride,
            keys,
            items,
        }
    }

    #[inline]
    fn key(&self, r: usize) -> &[u64] {
        &self.keys[r * self.stride..(r + 1) * self.stride]
    }

    /// The maximal runs of equal keys (the band's buckets), in key
    /// order — the one scan every bucket walk goes through.
    fn runs(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let n = self.items.len();
        let mut start = 0;
        std::iter::from_fn(move || {
            if start >= n {
                return None;
            }
            let mut end = start + 1;
            while end < n && self.key(end) == self.key(start) {
                end += 1;
            }
            let run = start..end;
            start = end;
            Some(run)
        })
    }

    /// Rows whose key equals `probe` (binary search on the sorted keys).
    fn equal_run(&self, probe: &[u64]) -> Range<usize> {
        let n = self.items.len();
        let lower = partition(n, |r| self.key(r) < probe);
        let upper = partition(n, |r| self.key(r) <= probe);
        lower..upper
    }
}

/// First `r` in `0..n` where `pred(r)` turns false (`pred` monotone).
fn partition(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Validate banding parameters; returns the signature width
/// `bands · rows_per_band`.
fn signature_bits(cfg: LshConfig) -> DcResult<usize> {
    if cfg.bands < 1 {
        return Err(DcError::invalid("LshIndex: at least one band"));
    }
    if cfg.rows_per_band < 1 {
        return Err(DcError::invalid("LshIndex: at least one row per band"));
    }
    if cfg.probes > 0 && cfg.rows_per_band > u16::MAX as usize {
        return Err(DcError::limit(format!(
            "LshIndex: probe orders hold u16 bit positions; {}-bit bands cannot be probed",
            cfg.rows_per_band
        )));
    }
    cfg.bands.checked_mul(cfg.rows_per_band).ok_or_else(|| {
        DcError::limit(format!(
            "LshIndex: {} bands × {} rows overflows the signature width",
            cfg.bands, cfg.rows_per_band
        ))
    })
}

/// Hyperplanes must come one per signature bit.
fn validate_planes(planes: &Tensor, cfg: LshConfig) -> DcResult<()> {
    if planes.rows != signature_bits(cfg)? {
        return Err(DcError::invalid(format!(
            "LshIndex: {} planes for {} bands × {} rows",
            planes.rows, cfg.bands, cfg.rows_per_band
        )));
    }
    Ok(())
}

/// Append each score row's multi-probe bit orders — per band, the
/// `ppb` band-relative bits with the smallest |margin| (ties by bit
/// index, so probe order is fully deterministic). Bulk builds and
/// single inserts both come through here, which keeps their probe sets
/// identical for identical score rows. `width` fits `u16`
/// ([`signature_bits`]).
fn push_flips<'a>(
    rows: impl Iterator<Item = &'a [f32]>,
    width: usize,
    ppb: usize,
    out: &mut Vec<u16>,
) {
    if ppb == 0 {
        return;
    }
    let mut order: Vec<u16> = Vec::with_capacity(width);
    for row in rows {
        for band in row.chunks_exact(width) {
            order.clear();
            order.extend(0..width as u16);
            order.sort_unstable_by(|&x, &y| {
                band[x as usize]
                    .abs()
                    .total_cmp(&band[y as usize].abs())
                    .then(x.cmp(&y))
            });
            out.extend_from_slice(&order[..ppb]);
        }
    }
}

/// A banded LSH index over one set of vectors (self-join retrieval),
/// bulk-built or grown and shrunk in place. See the module docs for the
/// tier design.
pub struct LshIndex {
    cfg: LshConfig,
    /// Effective probes per band (`cfg.probes` clamped to the band width).
    probes_per_band: usize,
    /// Hyperplanes for [`Self::insert_vector`]; score-row inserts work
    /// without them.
    planes: Option<Tensor>,
    /// Signatures of every item ever inserted (tombstones included —
    /// ids are stable for the index's lifetime).
    sigs: SignatureSet,
    /// Per `(item, band, probe)`: the band-relative bit to flip,
    /// ordered by ascending score margin. Empty when `probes == 0`.
    flips: Vec<u16>,
    alive: Vec<bool>,
    n_alive: usize,
    /// Sorted tier: one table per band over the items live at the last
    /// bulk build or compaction.
    tables: Vec<BandTable>,
    /// Overflow tier: ids inserted since, ascending (may contain
    /// tombstoned ids; filtered at query/compaction).
    recent: Vec<u32>,
}

impl LshIndex {
    /// An empty index accepting [`Self::insert_scores`].
    pub fn new(cfg: LshConfig) -> DcResult<Self> {
        Self::from_scores(&Tensor::zeros(0, signature_bits(cfg)?), cfg)
    }

    /// An empty index carrying `(bands·rows_per_band)×d` hyperplanes so
    /// raw `d`-dim vectors can be inserted directly.
    pub fn with_planes(planes: Tensor, cfg: LshConfig) -> DcResult<Self> {
        validate_planes(&planes, cfg)?;
        let mut idx = Self::new(cfg)?;
        idx.planes = Some(planes);
        Ok(idx)
    }

    /// Bulk-build from `n×d` item vectors and `(bands·rows_per_band)×d`
    /// hyperplanes (kept for later [`Self::insert_vector`] calls).
    /// Signature bits are the signs of one blocked kernel matmul, so
    /// they are identical for every `DC_THREADS` setting.
    pub fn build(vectors: &Tensor, planes: &Tensor, cfg: LshConfig) -> DcResult<Self> {
        validate_planes(planes, cfg)?;
        if planes.cols != vectors.cols {
            return Err(DcError::invalid(format!(
                "LshIndex: {}-dim vectors for {}-dim planes",
                vectors.cols, planes.cols
            )));
        }
        let mut idx = Self::from_scores(&sign_scores(vectors, planes), cfg)?;
        idx.planes = Some(planes.clone());
        Ok(idx)
    }

    /// Bulk-build from a precomputed `n×nbits` score matrix (the
    /// margins of `vectors · planesᵀ`). Every item lands in the sorted
    /// tier, as after a compaction.
    pub fn from_scores(scores: &Tensor, cfg: LshConfig) -> DcResult<Self> {
        let _build = IDX_BUILD.start();
        IDX_SIGNATURES.add(scores.rows as u64);
        let nbits = signature_bits(cfg)?;
        if scores.cols != nbits {
            return Err(DcError::invalid(format!(
                "LshIndex: {} score columns for {} bands × {} rows",
                scores.cols, cfg.bands, cfg.rows_per_band
            )));
        }
        let n = scores.rows;
        if n > u32::MAX as usize {
            return Err(DcError::limit("LshIndex: item count exceeds u32 range"));
        }
        let probes_per_band = cfg.probes.min(cfg.rows_per_band);
        let mut flips = Vec::with_capacity(n * cfg.bands * probes_per_band);
        push_flips(
            (0..n).map(|i| scores.row_slice(i)),
            cfg.rows_per_band,
            probes_per_band,
            &mut flips,
        );
        let mut idx = LshIndex {
            cfg,
            probes_per_band,
            planes: None,
            sigs: SignatureSet::from_scores(scores),
            flips,
            alive: vec![true; n],
            n_alive: n,
            tables: Vec::new(),
            recent: Vec::new(),
        };
        idx.sort_live();
        Ok(idx)
    }

    /// Rebuild the sorted tier over every live item and empty the
    /// overflow.
    fn sort_live(&mut self) {
        let members: Vec<u32> = (0..self.alive.len() as u32)
            .filter(|&i| self.alive[i as usize])
            .collect();
        let width = self.cfg.rows_per_band;
        self.tables = (0..self.cfg.bands)
            .map(|b| BandTable::build(&self.sigs, b * width, width, &members))
            .collect();
        self.recent.clear();
    }

    /// The banding configuration.
    pub fn config(&self) -> LshConfig {
        self.cfg
    }

    /// Total ids ever issued (tombstones included).
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// True when no item was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Number of live (non-tombstoned) items.
    pub fn alive_count(&self) -> usize {
        self.n_alive
    }

    /// True when `id` exists and is not tombstoned.
    pub fn is_alive(&self, id: usize) -> bool {
        self.alive.get(id).copied().unwrap_or(false)
    }

    /// Items currently in the overflow tier (tombstoned ones included);
    /// the background-compaction trigger.
    pub fn overflow_len(&self) -> usize {
        self.recent.len()
    }

    /// Insert one item by its `nbits` hyperplane margins; returns the
    /// new item's id. O(overflow) — no sorted-tier rebuild.
    pub fn insert_scores(&mut self, row: &[f32]) -> DcResult<usize> {
        if row.len() != self.sigs.nbits() {
            return Err(DcError::invalid(format!(
                "insert: {} scores for {}-bit signatures",
                row.len(),
                self.sigs.nbits()
            )));
        }
        if self.alive.len() >= u32::MAX as usize {
            return Err(DcError::limit("LshIndex: id space exhausted"));
        }
        let id = self.sigs.push_scores(row);
        push_flips(
            std::iter::once(row),
            self.cfg.rows_per_band,
            self.probes_per_band,
            &mut self.flips,
        );
        self.alive.push(true);
        self.n_alive += 1;
        self.recent.push(id as u32);
        INC_INSERTS.incr();
        INC_OVERFLOW.set(self.recent.len() as u64);
        Ok(id)
    }

    /// Insert a raw `d`-dim vector (requires construction via
    /// [`Self::with_planes`] or [`Self::build`]); its margins are one
    /// kernel matvec.
    pub fn insert_vector(&mut self, v: &[f32]) -> DcResult<usize> {
        let planes = self
            .planes
            .as_ref()
            .ok_or_else(|| DcError::invalid("insert_vector: index built without hyperplanes"))?;
        if v.len() != planes.cols {
            return Err(DcError::invalid(format!(
                "insert_vector: {}-dim vector for {}-dim planes",
                v.len(),
                planes.cols
            )));
        }
        let row = sign_scores(&Tensor::from_vec(1, v.len(), v.to_vec()), planes);
        self.insert_scores(row.row_slice(0))
    }

    /// Tombstone an item. Its id stays allocated; candidates stop
    /// including it immediately.
    pub fn delete(&mut self, id: usize) -> DcResult<()> {
        match self.alive.get_mut(id) {
            Some(a) if *a => {
                *a = false;
                self.n_alive -= 1;
                INC_DELETES.incr();
                Ok(())
            }
            Some(_) => Err(DcError::not_found(format!("item {id} already deleted"))),
            None => Err(DcError::not_found(format!("item {id} does not exist"))),
        }
    }

    /// Fold the overflow tier and tombstones into fresh sorted band
    /// tables. Ids are preserved; only the tier assignment changes, so
    /// [`Self::candidate_pairs`] is unaffected (proven by proptest).
    pub fn compact(&mut self) {
        self.sort_live();
        INC_COMPACTIONS.incr();
        INC_OVERFLOW.set(0);
    }

    /// The exact candidate pair set over live items — banding plus
    /// multi-probe, sorted ascending `(min, max)`: [`Self::for_each_pair`]
    /// collected. Same pair set as a fresh bulk build over the live score
    /// rows (with rebuild ids mapped back through the live list).
    pub fn candidate_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        self.for_each_pair(|i, j| pairs.push((i, j)));
        pairs.sort_unstable();
        pairs
    }

    /// Call `f(min, max)` once for every candidate pair of live items,
    /// band by band, holding no pair set: each pair is emitted at its
    /// **first witness** and skipped at every later one.
    ///
    /// The walk visits, per band in ascending order, first the pairs of
    /// equal keys (within each tier, then overflow × sorted), then the
    /// multi-probe hits of every live item in ascending id order. A band
    /// witnesses `(i, j)` exactly when their band keys are equal or one
    /// bit apart where that bit is among `i`'s or `j`'s probes — a check
    /// on the two signatures and flip orders alone. So a pair found in
    /// band `b` is first found there iff no band before `b` witnesses
    /// it and, for a probe hit by `x` on `y < x`, `y`'s own probes of
    /// band `b` do not flip the same bit (`y` probes first). Every live
    /// item sits in exactly one tier of every band, so each earlier
    /// witness really was an emission: the rule is exact, and it costs
    /// O(bands · (1 + 2·probes)) per emission and no memory.
    pub fn for_each_pair(&self, mut f: impl FnMut(usize, usize)) {
        let _query = IDX_QUERY.start();
        let width = self.cfg.rows_per_band;
        let ppb = self.probes_per_band;
        let recent: Vec<u32> = self
            .recent
            .iter()
            .copied()
            .filter(|&i| self.alive[i as usize])
            .collect();
        let mut live: Vec<u32> = Vec::new();
        let mut key = vec![0u64; width.div_ceil(64)];
        let (mut exact_hits, mut probe_hits, mut unique) = (0u64, 0u64, 0u64);
        for (b, sorted) in self.tables.iter().enumerate() {
            let lo = b * width;
            let overflow =
                (!recent.is_empty()).then(|| BandTable::build(&self.sigs, lo, width, &recent));
            let tiers = || std::iter::once(sorted).chain(&overflow);
            let mut exact = |i: u32, j: u32| {
                exact_hits += 1;
                let (i, j) = (i.min(j) as usize, i.max(j) as usize);
                if self.unwitnessed_before(b, i, j) {
                    unique += 1;
                    f(i, j);
                }
            };
            // In-bucket pairs within each tier.
            for t in tiers() {
                for run in t.runs() {
                    self.each_in_run(t, run, None, &mut live, &mut exact);
                }
            }
            // Cross-tier: each overflow bucket against the sorted
            // tier's equal bucket. The tiers are disjoint, so no self
            // pairs can appear.
            if let Some(ovf) = &overflow {
                for run in ovf.runs() {
                    let hits = sorted.equal_run(ovf.key(run.start));
                    self.each_in_run(sorted, hits, Some(&ovf.items[run]), &mut live, &mut exact);
                }
            }
            // Multi-probe: flipped keys of every live item against both
            // tiers (a flipped key never equals the item's own key, so
            // no self pairs here either).
            for x in (0..self.alive.len()).filter(|&x| self.alive[x]) {
                for p in 0..ppb {
                    let rel = self.flips[(x * self.cfg.bands + b) * ppb + p] as usize;
                    self.sigs.band_key_into(x, lo, width, &mut key);
                    key[rel / 64] ^= 1u64 << (rel % 64);
                    IDX_PROBE_LOOKUPS.incr();
                    let mut probe = |x: u32, y: u32| {
                        probe_hits += 1;
                        let (x, y) = (x as usize, y as usize);
                        if (x < y || !self.probes_bit(y, b, rel))
                            && self.unwitnessed_before(b, x.min(y), x.max(y))
                        {
                            unique += 1;
                            f(x.min(y), x.max(y));
                        }
                    };
                    for t in tiers() {
                        let hits = t.equal_run(&key);
                        self.each_in_run(t, hits, Some(&[x as u32]), &mut live, &mut probe);
                    }
                }
            }
        }
        IDX_PROBE_CANDIDATES.add(probe_hits);
        IDX_CANDIDATES_RAW.add(exact_hits + probe_hits);
        IDX_CANDIDATES_UNIQUE.add(unique);
    }

    /// True when no band before `b` witnesses the pair `(i, j)`.
    fn unwitnessed_before(&self, b: usize, i: usize, j: usize) -> bool {
        (0..b).all(|e| !self.witnesses(e, i, j))
    }

    /// Whether band `b` finds the pair `(i, j)`: equal band keys, or
    /// keys one bit apart where that bit is one of `i`'s or `j`'s probes.
    fn witnesses(&self, b: usize, i: usize, j: usize) -> bool {
        let width = self.cfg.rows_per_band;
        match self.sigs.band_diff(i, j, b * width, width) {
            (0, _) => true,
            (1, bit) => self.probes_bit(i, b, bit) || self.probes_bit(j, b, bit),
            _ => false,
        }
    }

    /// Whether item `x`'s probes of band `b` flip band-relative `bit`.
    fn probes_bit(&self, x: usize, b: usize, bit: usize) -> bool {
        let ppb = self.probes_per_band;
        self.flips[(x * self.cfg.bands + b) * ppb..][..ppb].contains(&(bit as u16))
    }

    /// Hand `emit` the pairs of one bucket — rows `run` of `t`: every
    /// pair among its live items as `(lower, higher)`, or, given `with`
    /// (live items of another tier, or a probing item), each of those
    /// against each live item of the bucket as `(with item, bucket
    /// item)`. The tombstone filter runs per bucket item, not per pair,
    /// and not at all while nothing is deleted.
    fn each_in_run(
        &self,
        t: &BandTable,
        run: Range<usize>,
        with: Option<&[u32]>,
        live: &mut Vec<u32>,
        emit: &mut impl FnMut(u32, u32),
    ) {
        let mut items = &t.items[run];
        if self.n_alive < self.alive.len() {
            live.clear();
            live.extend(items.iter().filter(|&&i| self.alive[i as usize]));
            items = &live[..];
        }
        match with {
            // Bucket items ascend, so `(i, j)` is already `(min, max)`.
            None => {
                for (x, &i) in items.iter().enumerate() {
                    for &j in &items[x + 1..] {
                        emit(i, j);
                    }
                }
            }
            Some(others) => {
                for &j in items {
                    for &i in others {
                        emit(i, j);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cfg(bands: usize, rows_per_band: usize, probes: usize) -> LshConfig {
        LshConfig {
            bands,
            rows_per_band,
            probes,
        }
    }

    /// Score matrix whose signs are given directly (±1), so bucket
    /// membership is transparent.
    fn scores_from_bits(rows: &[&[u8]]) -> Tensor {
        let n = rows.len();
        let nbits = rows[0].len();
        let data = rows
            .iter()
            .flat_map(|r| r.iter().map(|&b| if b == 1 { 1.0 } else { -1.0 }))
            .collect();
        Tensor::from_vec(n, nbits, data)
    }

    /// Random-ish deterministic score rows in `[-0.5, 0.5)`.
    fn det_scores(n: usize, nbits: usize, salt: u64) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..nbits)
                    .map(|j| {
                        let x = ((i * nbits + j) as u64)
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(salt);
                        ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
                    })
                    .collect()
            })
            .collect()
    }

    fn matrix(rows: &[Vec<f32>]) -> Tensor {
        let nbits = rows.first().map_or(0, |r| r.len());
        Tensor::from_vec(rows.len(), nbits, rows.iter().flatten().copied().collect())
    }

    /// Pair set of a fresh bulk build over the live rows, mapped back
    /// to the mutated index's ids.
    fn rebuild_pairs(idx: &LshIndex, rows: &[Vec<f32>]) -> Vec<(usize, usize)> {
        let live: Vec<usize> = (0..rows.len()).filter(|&i| idx.is_alive(i)).collect();
        let live_rows: Vec<Vec<f32>> = live.iter().map(|&i| rows[i].clone()).collect();
        LshIndex::from_scores(&matrix(&live_rows), idx.config())
            .unwrap()
            .candidate_pairs()
            .into_iter()
            .map(|(a, b)| (live[a], live[b]))
            .collect()
    }

    #[test]
    fn exact_band_collisions_dedup_across_bands() {
        // Items 0 and 1 share band 0; items 0, 1, 2 share band 1.
        let scores = scores_from_bits(&[&[1, 1, 0, 0], &[1, 1, 0, 0], &[0, 0, 0, 0]]);
        let idx = LshIndex::from_scores(&scores, cfg(2, 2, 0)).unwrap();
        assert_eq!(idx.candidate_pairs(), vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn empty_index_has_no_candidates() {
        let idx = LshIndex::from_scores(&Tensor::zeros(0, 4), cfg(2, 2, 1)).unwrap();
        assert!(idx.is_empty());
        assert!(idx.candidate_pairs().is_empty());
    }

    #[test]
    fn multi_probe_recovers_near_boundary_neighbours() {
        // Items 0/1 differ only on bit 1, where item 0's margin is
        // tiny: one band of 2 bits never collides exactly, but one
        // probe flips exactly that bit.
        let scores = Tensor::from_vec(2, 2, vec![1.0, 0.001, 1.0, -1.0]);
        let exact = LshIndex::from_scores(&scores, cfg(1, 2, 0)).unwrap();
        assert!(exact.candidate_pairs().is_empty());
        let probed = LshIndex::from_scores(&scores, cfg(1, 2, 1)).unwrap();
        assert_eq!(probed.candidate_pairs(), vec![(0, 1)]);
    }

    #[test]
    fn probe_pairs_are_a_superset_preserving_exact_pairs() {
        let scores = matrix(&det_scores(40, 12, 1442695040888963407));
        let pairs = |probes| -> HashSet<(usize, usize)> {
            LshIndex::from_scores(&scores, cfg(3, 4, probes))
                .unwrap()
                .candidate_pairs()
                .into_iter()
                .collect()
        };
        let (exact, probed) = (pairs(0), pairs(2));
        assert!(exact.is_subset(&probed));
        assert!(probed.len() > exact.len(), "probing added nothing");
    }

    #[test]
    fn wide_bands_use_multi_word_keys() {
        // 2 bands × 70 bits: keys straddle u64 words.
        let n = 6;
        let nbits = 140;
        let mut rows: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                (0..nbits)
                    .map(|j| ((i * 31 + j * 7) % 3 == 0) as u8)
                    .collect()
            })
            .collect();
        rows[4] = rows[1].clone(); // plant an exact duplicate
        let refs: Vec<&[u8]> = rows.iter().map(|r| r.as_slice()).collect();
        let idx = LshIndex::from_scores(&scores_from_bits(&refs), cfg(2, 70, 0)).unwrap();
        let pairs = idx.candidate_pairs();
        assert!(pairs.contains(&(1, 4)), "{pairs:?}");
    }

    #[test]
    fn insert_delete_compact_matches_rebuild() {
        for probes in [0, 2] {
            let rows = det_scores(60, 12, 99);
            let mut idx = LshIndex::new(cfg(3, 4, probes)).unwrap();
            for r in &rows[..40] {
                idx.insert_scores(r).unwrap();
            }
            assert_eq!(idx.candidate_pairs(), rebuild_pairs(&idx, &rows));
            idx.compact();
            assert_eq!(idx.overflow_len(), 0);
            assert_eq!(idx.candidate_pairs(), rebuild_pairs(&idx, &rows));
            for r in &rows[40..] {
                idx.insert_scores(r).unwrap();
            }
            for id in [3, 17, 41, 59] {
                idx.delete(id).unwrap();
            }
            assert_eq!(idx.candidate_pairs(), rebuild_pairs(&idx, &rows));
            idx.compact();
            assert_eq!(idx.candidate_pairs(), rebuild_pairs(&idx, &rows));
            assert_eq!(idx.alive_count(), 56);
        }
    }

    #[test]
    fn errors_are_structured() {
        let mut idx = LshIndex::new(cfg(3, 4, 1)).unwrap();
        assert_eq!(
            idx.insert_scores(&[0.0; 5]).unwrap_err().kind(),
            "invalid_input"
        );
        assert_eq!(idx.delete(0).unwrap_err().kind(), "not_found");
        let id = idx.insert_scores(&[1.0; 12]).unwrap();
        idx.delete(id).unwrap();
        assert_eq!(idx.delete(id).unwrap_err().kind(), "not_found");
        assert!(LshIndex::new(cfg(0, 4, 0)).is_err());
        assert!(LshIndex::from_scores(&Tensor::zeros(2, 5), cfg(3, 4, 0)).is_err());
        assert!(idx.insert_vector(&[1.0; 4]).is_err(), "no planes");
    }

    #[test]
    fn band_count_times_width_overflow_is_an_error_not_a_panic() {
        let err = LshIndex::from_scores(&Tensor::zeros(0, 4), cfg(usize::MAX, 2, 0)).err();
        assert_eq!(err.map(|e| e.kind()), Some("limit"));
        assert!(LshIndex::new(cfg(usize::MAX / 2 + 1, 2, 0)).is_err());
    }

    #[test]
    fn probed_bands_wider_than_u16_are_rejected() {
        // Probe orders are u16 bit positions: a 65 536-bit band used to
        // truncate `width as u16` and probe the wrong bits.
        let wide = u16::MAX as usize + 1;
        let err = LshIndex::new(cfg(1, wide, 1)).err();
        assert_eq!(err.map(|e| e.kind()), Some("limit"));
        assert!(LshIndex::new(cfg(1, wide, 0)).is_ok(), "unprobed is fine");
        assert!(LshIndex::new(cfg(1, wide - 1, 1)).is_ok());
    }

    #[test]
    fn vector_inserts_go_through_planes() {
        let planes = matrix(&det_scores(12, 4, 7));
        let mut grown = LshIndex::with_planes(planes.clone(), cfg(3, 4, 0)).unwrap();
        let vs = det_scores(10, 4, 21);
        for v in &vs {
            grown.insert_vector(v).unwrap();
        }
        // Same pair set as the bulk build from the same vectors, which
        // keeps its planes and so accepts vectors too.
        let mut built = LshIndex::build(&matrix(&vs), &planes, cfg(3, 4, 0)).unwrap();
        assert_eq!(grown.candidate_pairs(), built.candidate_pairs());
        assert_eq!(built.insert_vector(&vs[0]).unwrap(), 10);
        assert!(built.candidate_pairs().contains(&(0, 10)));
        assert_eq!(
            grown.insert_vector(&[0.0; 3]).unwrap_err().kind(),
            "invalid_input"
        );
        assert!(LshIndex::with_planes(planes, cfg(2, 4, 0)).is_err());
    }
}
