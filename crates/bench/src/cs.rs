//! Content Store benchmark: a memory-budgeted million-object cache under
//! a Zipf Interest load, swept across eviction policies and byte budgets.
//!
//! The corpus is real pipeline output: [`ChunkedFile`]s cut into
//! fixed-size segments with a catalog packet each (one Merkle proof per
//! file is verified during the build, so the corpus the cache serves is
//! the one the storage pipeline actually emits). Every cell seeds the
//! full corpus into a fresh store, then replays a seeded Zipf-distributed
//! Interest trace against it; a miss re-fetches (re-inserts) the object,
//! and every [`CsParams::refresh_every`]-th Interest re-inserts even on a
//! hit, exercising the refresh rank of each policy.
//!
//! The historical count-capped FIFO shape also runs once; its hit/miss
//! trace (FNV-1a folded) is recorded as the report's `trace_fnv`. Its
//! equivalence with a naive `Name`-keyed FIFO cache is the differential
//! property test in `dapes-ndn`. Two gates pin the sweep:
//!
//! * **Self-determinism** — every cell runs twice in-process; trace and
//!   final counters must match, so committed reports reproduce.
//! * **Exact accounting** — every store passes [`ContentStore::audit`]
//!   after the run, and a full-size budget must hit on every Interest.

use dapes_core::pipeline::ChunkedFile;
use dapes_ndn::cs::{ContentStore, CsBudget, CsStats, EvictionPolicyKind, ENTRY_OVERHEAD};
use dapes_ndn::name::Name;
use dapes_ndn::packet::Data;
use dapes_netsim::time::SimTime;
use dapes_testutil::zipf::ZipfSampler;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Workload shape for one benchmark invocation.
#[derive(Clone, Debug)]
pub struct CsParams {
    /// RNG seed for the Zipf Interest trace.
    pub seed: u64,
    /// Number of chunked files in the corpus.
    pub files: usize,
    /// Segments per file (each file also publishes one catalog packet).
    pub chunks_per_file: usize,
    /// Segment payload size in bytes.
    pub chunk_size: usize,
    /// Interests replayed against each cell.
    pub interests: usize,
    /// Zipf exponent of the Interest popularity distribution.
    pub zipf_s: f64,
    /// Every n-th Interest re-inserts its object even on a hit, driving
    /// the refresh path of each policy. 0 disables refreshes.
    pub refresh_every: usize,
    /// Byte budgets as fractions of the full corpus footprint; 1.0 must
    /// yield a 100% hit rate.
    pub budget_fracs: Vec<f64>,
}

impl CsParams {
    /// The committed-report workload: 1.2 million cached objects.
    pub fn dense() -> Self {
        CsParams {
            seed: 42,
            files: 120,
            chunks_per_file: 10_000,
            chunk_size: 64,
            interests: 2_000_000,
            zipf_s: 0.9,
            refresh_every: 16,
            budget_fracs: vec![0.125, 0.25, 0.5, 1.0],
        }
    }

    /// CI smoke workload: same axes, seconds instead of minutes.
    pub fn smoke() -> Self {
        CsParams {
            seed: 42,
            files: 4,
            chunks_per_file: 250,
            chunk_size: 64,
            interests: 20_000,
            zipf_s: 0.9,
            refresh_every: 16,
            budget_fracs: vec![0.25, 1.0],
        }
    }

    /// Total corpus objects: segments plus one catalog per file.
    pub fn objects(&self) -> usize {
        self.files * (self.chunks_per_file + 1)
    }
}

/// One (policy, budget) cell of the sweep.
#[derive(Clone, Debug)]
pub struct CsCell {
    /// Eviction policy under test.
    pub policy: EvictionPolicyKind,
    /// Byte budget of this cell.
    pub budget_bytes: usize,
    /// The budget as a fraction of the full corpus footprint.
    pub budget_frac: f64,
    /// Final cumulative store counters.
    pub stats: CsStats,
    /// `hits / lookups` over the Interest trace.
    pub hit_rate: f64,
    /// Entries resident when the trace ended.
    pub resident_entries: usize,
    /// Accounted bytes resident when the trace ended.
    pub resident_bytes: usize,
    /// FNV-1a fold of the (object, hit) trace — the cell's identity.
    pub trace_fnv: u64,
    /// Whether an in-process second run reproduced trace and counters.
    pub deterministic: bool,
    /// Whether [`ContentStore::audit`] passed after the run.
    pub audit_clean: bool,
}

/// The full sweep plus the count-capped FIFO trace cell.
#[derive(Clone, Debug)]
pub struct CsRun {
    /// Corpus size in objects.
    pub objects: usize,
    /// Byte footprint of the whole corpus under the byte-budget cost
    /// model (`wire_size + ENTRY_OVERHEAD` per object).
    pub full_budget_bytes: usize,
    /// FIFO count-capped hit/miss trace.
    pub trace_fnv: u64,
    /// Whether the count-capped FIFO store passed its audit.
    pub trace_audit_clean: bool,
    /// Policy × budget sweep cells.
    pub cells: Vec<CsCell>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut h: u64, id: u64, hit: bool) -> u64 {
    for b in id.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    (h ^ hit as u64).wrapping_mul(FNV_PRIME)
}

/// Builds the corpus through the chunked-file pipeline: per file, the
/// catalog packet followed by every segment, with a per-object refetch
/// cost (files sit at different simulated hop distances, which is what
/// the cost-aware policy prices). One Merkle proof per file is verified
/// against its catalog so the corpus is pinned to the pipeline's output.
pub fn build_corpus(params: &CsParams) -> (Vec<Data>, Vec<u32>) {
    let collection = Name::from_uri("/bench-cs-1533783192");
    let mut corpus = Vec::with_capacity(params.objects());
    let mut costs = Vec::with_capacity(params.objects());
    for f in 0..params.files {
        let file = format!("f{f:03}");
        let cf = ChunkedFile::synthetic(
            &collection,
            &file,
            params.chunks_per_file * params.chunk_size,
            params.chunk_size,
        );
        assert_eq!(cf.chunk_count(), params.chunks_per_file, "chunk geometry");
        let catalog = cf.catalog();
        let proof = cf.prove(0).expect("proof for segment 0");
        let seg0 = cf.segment(0).expect("segment 0");
        assert!(
            ChunkedFile::verify_segment(&catalog, &proof, 0, &seg0),
            "pipeline proof must verify for {file}"
        );
        // Hop distance to this file's producer: 1..=5, by file.
        let cost = (f % 5 + 1) as u32;
        corpus.push(cf.catalog_data());
        costs.push(cost);
        for seg in cf.segments() {
            corpus.push(seg);
            costs.push(cost);
        }
    }
    (corpus, costs)
}

/// Seeds the corpus, replays the Zipf Interest trace (miss → refetch,
/// periodic refresh on hit) and returns the folded hit/miss trace.
fn run_workload(
    corpus: &[Data],
    costs: &[u32],
    zipf: &ZipfSampler,
    params: &CsParams,
    cs: &mut ContentStore,
) -> u64 {
    let t = SimTime::ZERO;
    for (data, &cost) in corpus.iter().zip(costs) {
        cs.insert_with_cost(data.clone(), cost, t);
    }
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut fnv = FNV_OFFSET;
    for step in 0..params.interests {
        let id = zipf.sample(&mut rng);
        let hit = cs.lookup(corpus[id].name(), false, false, t).is_some();
        if !hit || (params.refresh_every > 0 && step % params.refresh_every == 0) {
            cs.insert_with_cost(corpus[id].clone(), costs[id], t);
        }
        fnv = fnv_fold(fnv, id as u64, hit);
    }
    fnv
}

fn run_cell(
    corpus: &[Data],
    costs: &[u32],
    zipf: &ZipfSampler,
    params: &CsParams,
    policy: EvictionPolicyKind,
    budget_bytes: usize,
    budget_frac: f64,
) -> CsCell {
    let run = || {
        let mut cs = ContentStore::with_budget(CsBudget::Bytes(budget_bytes), policy);
        let fnv = run_workload(corpus, costs, zipf, params, &mut cs);
        let audit = cs.audit();
        (fnv, cs.stats(), cs.len(), cs.resident_bytes(), audit)
    };
    let (fnv, stats, resident_entries, resident_bytes, audit) = run();
    let (fnv2, stats2, _, _, audit2) = run();
    CsCell {
        policy,
        budget_bytes,
        budget_frac,
        stats,
        hit_rate: stats.hits as f64 / (stats.lookups.max(1)) as f64,
        resident_entries,
        resident_bytes,
        trace_fnv: fnv,
        deterministic: fnv == fnv2 && stats == stats2,
        audit_clean: audit.is_ok() && audit2.is_ok(),
    }
}

/// Runs the whole sweep: the count-capped FIFO trace cell, then every
/// policy × budget cell (each twice, for the self-determinism gate).
pub fn run_all(params: &CsParams) -> CsRun {
    let (corpus, costs) = build_corpus(params);
    let zipf = ZipfSampler::new(corpus.len(), params.zipf_s);
    let full_budget_bytes: usize = corpus.iter().map(|d| d.wire_size() + ENTRY_OVERHEAD).sum();

    // The historical count-capped FIFO shape.
    let mut fifo = ContentStore::new((corpus.len() / 4).max(1));
    let trace_fnv = run_workload(&corpus, &costs, &zipf, params, &mut fifo);
    let trace_audit_clean = fifo.audit().is_ok();

    let mut cells = Vec::new();
    for policy in EvictionPolicyKind::ALL {
        for &frac in &params.budget_fracs {
            let budget_bytes = if frac >= 1.0 {
                full_budget_bytes
            } else {
                (full_budget_bytes as f64 * frac) as usize
            };
            cells.push(run_cell(
                &corpus,
                &costs,
                &zipf,
                params,
                policy,
                budget_bytes,
                frac,
            ));
        }
    }
    CsRun {
        objects: corpus.len(),
        full_budget_bytes,
        trace_fnv,
        trace_audit_clean,
        cells,
    }
}

/// The CI gate: returns the first violated invariant.
///
/// * the count-capped FIFO store and every cell pass the
///   exact-accounting audit;
/// * every cell reproduces itself on a second in-process run;
/// * hit and miss counters decompose lookups exactly and the hit rate is
///   a probability;
/// * a full-size budget serves every Interest from cache.
pub fn gate(run: &CsRun) -> Result<(), String> {
    if !run.trace_audit_clean {
        return Err("count-capped FIFO store failed its audit".into());
    }
    for cell in &run.cells {
        let label = format!(
            "{} @ {} B ({:.1}%)",
            cell.policy.label(),
            cell.budget_bytes,
            cell.budget_frac * 100.0
        );
        if !cell.audit_clean {
            return Err(format!("{label}: store audit failed"));
        }
        if !cell.deterministic {
            return Err(format!("{label}: second run diverged"));
        }
        let s = cell.stats;
        if s.hits + s.misses != s.lookups {
            return Err(format!(
                "{label}: counters do not decompose ({} + {} != {})",
                s.hits, s.misses, s.lookups
            ));
        }
        if !(0.0..=1.0).contains(&cell.hit_rate) {
            return Err(format!("{label}: hit rate {} out of range", cell.hit_rate));
        }
        if cell.budget_frac >= 1.0 && cell.hit_rate < 1.0 {
            return Err(format!(
                "{label}: full budget must hit every Interest, got {}",
                cell.hit_rate
            ));
        }
    }
    Ok(())
}

/// Renders `BENCH_cs.json`: header, gates, and one curve entry per cell.
pub fn render_report(params: &CsParams, run: &CsRun) -> String {
    let curves: Vec<String> = run
        .cells
        .iter()
        .map(|c| {
            format!(
                concat!(
                    "    {{\"policy\": \"{}\", \"budget_bytes\": {}, ",
                    "\"budget_frac\": {:.4}, \"hit_rate\": {:.6}, ",
                    "\"lookups\": {}, \"hits\": {}, \"misses\": {}, ",
                    "\"insertions\": {}, \"refreshes\": {}, \"evictions\": {}, ",
                    "\"rejected_oversize\": {}, \"resident_entries\": {}, ",
                    "\"resident_bytes\": {}, \"trace_fnv\": \"{:#018x}\", ",
                    "\"deterministic\": {}, \"audit_clean\": {}}}"
                ),
                c.policy.label(),
                c.budget_bytes,
                c.budget_frac,
                c.hit_rate,
                c.stats.lookups,
                c.stats.hits,
                c.stats.misses,
                c.stats.insertions,
                c.stats.refreshes,
                c.stats.evictions,
                c.stats.rejected_oversize,
                c.resident_entries,
                c.resident_bytes,
                c.trace_fnv,
                c.deterministic,
                c.audit_clean,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"scenario\": \"cs\",\n",
            "  \"nodes\": 1,\n",
            "  \"seed\": {seed},\n",
            "  \"objects\": {objects},\n",
            "  \"files\": {files},\n",
            "  \"chunks_per_file\": {cpf},\n",
            "  \"chunk_size\": {chunk},\n",
            "  \"interests\": {interests},\n",
            "  \"zipf_s\": {zipf:.3},\n",
            "  \"refresh_every\": {refresh},\n",
            "  \"full_budget_bytes\": {full},\n",
            "  \"trace_fnv\": \"{trace_fnv:#018x}\",\n",
            "  \"curves\": [\n{curves}\n  ]\n",
            "}}\n"
        ),
        seed = params.seed,
        objects = run.objects,
        files = params.files,
        cpf = params.chunks_per_file,
        chunk = params.chunk_size,
        interests = params.interests,
        zipf = params.zipf_s,
        refresh = params.refresh_every,
        full = run.full_budget_bytes,
        trace_fnv = run.trace_fnv,
        curves = curves.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-build-sized workload for the module tests.
    fn tiny() -> CsParams {
        CsParams {
            seed: 7,
            files: 2,
            chunks_per_file: 40,
            chunk_size: 32,
            interests: 2_000,
            zipf_s: 0.9,
            refresh_every: 16,
            budget_fracs: vec![0.25, 1.0],
        }
    }

    #[test]
    fn corpus_is_catalogs_plus_segments_with_file_major_costs() {
        let params = tiny();
        let (corpus, costs) = build_corpus(&params);
        assert_eq!(corpus.len(), params.objects());
        assert_eq!(costs.len(), corpus.len());
        // First object of each file group is its catalog.
        let group = params.chunks_per_file + 1;
        assert!(corpus[0].name().to_string().ends_with("/catalog"));
        assert!(corpus[group].name().to_string().ends_with("/catalog"));
        // Costs are constant within a file group.
        assert!(costs[..group].iter().all(|&c| c == costs[0]));
        assert_ne!(costs[0], costs[group], "files sit at different distances");
    }

    #[test]
    fn sweep_passes_its_own_gate_and_validates() {
        let params = tiny();
        let run = run_all(&params);
        assert_eq!(gate(&run), Ok(()));
        // Constrained cells actually churn; full-budget cells never miss.
        for cell in &run.cells {
            if cell.budget_frac >= 1.0 {
                assert_eq!(cell.stats.misses, 0, "{:?}", cell.policy);
                assert_eq!(cell.stats.evictions, 0, "{:?}", cell.policy);
            } else {
                assert!(cell.stats.evictions > 0, "{:?}", cell.policy);
                assert!(cell.hit_rate < 1.0, "{:?}", cell.policy);
            }
        }
        let json = render_report(&params, &run);
        let doc = crate::json::parse(&json).expect("report parses");
        assert_eq!(crate::check::validate(&doc), Ok(()));
        let table = crate::check::summary(&doc).expect("summary renders");
        assert!(table.contains("`cs`") && table.contains("`lru`"), "{table}");
    }

    #[test]
    fn recency_policies_beat_fifo_on_a_zipf_trace() {
        // The point of the policy sweep: under a constrained budget and a
        // heavy-tailed trace, recency/frequency-aware eviction keeps the
        // hot head resident while FIFO cycles it out.
        let run = run_all(&tiny());
        let rate = |kind: EvictionPolicyKind| {
            run.cells
                .iter()
                .find(|c| c.policy == kind && c.budget_frac < 1.0)
                .expect("constrained cell")
                .hit_rate
        };
        assert!(
            rate(EvictionPolicyKind::Lru) > rate(EvictionPolicyKind::Fifo),
            "lru {} vs fifo {}",
            rate(EvictionPolicyKind::Lru),
            rate(EvictionPolicyKind::Fifo)
        );
        assert!(
            rate(EvictionPolicyKind::Lfu) > rate(EvictionPolicyKind::Fifo),
            "lfu {} vs fifo {}",
            rate(EvictionPolicyKind::Lfu),
            rate(EvictionPolicyKind::Fifo)
        );
    }

    #[test]
    fn different_seeds_produce_different_traces() {
        let a = run_all(&tiny());
        let mut params = tiny();
        params.seed = 8;
        let b = run_all(&params);
        assert_ne!(
            a.cells[0].trace_fnv, b.cells[0].trace_fnv,
            "the trace checksum must track the workload"
        );
        // But each is internally reproducible.
        assert!(a.cells.iter().all(|c| c.deterministic));
        assert!(b.cells.iter().all(|c| c.deterministic));
    }

    #[test]
    fn gate_rejects_a_failed_audit_or_a_nondeterministic_cell() {
        let mut run = run_all(&tiny());
        run.trace_audit_clean = false;
        let err = gate(&run).expect_err("failed audit");
        assert!(err.contains("audit"), "{err}");
        let mut run = run_all(&tiny());
        run.cells[0].deterministic = false;
        let err = gate(&run).expect_err("nondeterministic cell");
        assert!(err.contains("second run diverged"), "{err}");
    }
}
