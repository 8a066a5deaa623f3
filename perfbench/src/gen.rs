//! Seeded workload inputs and their measured input block.
//!
//! The same `(workload, seed, lines)` always yields the same bytes. Each
//! workload draws from its own seed namespace so corpora never overlap by
//! accident: the serve prefill store in particular holds forms that the
//! serve request stream never asks for.

use std::collections::HashMap;

use msrs_core::{CanonicalForm, Instance};
use msrs_engine::families::FAMILIES;
use msrs_engine::{classify, jsonl, SizeTier, DEFAULT_CACHE_CAPACITY};

use crate::json::{obj, ratio, Obj};
use crate::Args;

/// Distinct canonical forms in `traffic_hot`: fits the CLI's default
/// 1024-entry cache with room to spare.
const HOT_FORMS: u64 = 500;
/// Distinct canonical forms in `dispatch_durable`: one and a half times a
/// worker's cache, so shards share forms across workers through the
/// coordinator's fleet cache, and local caches evict.
const DISPATCH_FORMS: u64 = 1500;
/// Machines of every `traffic`-family instance (the `msrs gen` default).
const TRAFFIC_MACHINES: usize = 4;
/// `traffic` seeds share a canonical form in buckets of this size.
const TRAFFIC_DUP: u64 = 10;

/// splitmix64: a tiny seeded generator, so the inputs depend on no
/// library's RNG stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// One seed namespace per workload (all multiples of the traffic bucket).
fn namespace(seed: u64, slot: u64) -> u64 {
    (seed % 1_000_000) * 100_000_000 + slot * 10_000_000
}

fn with_id(id: &str, inst: &Instance) -> String {
    jsonl::write_instance_line(Some(id), inst)
}

/// `lines` uniform draws from `forms` canonical `traffic` forms, each in
/// one of its ten relabellings: byte-level variety, canonical reuse, and
/// duplicates spread over the whole corpus rather than in runs of ten.
fn traffic_draws(
    seed: u64,
    slot: u64,
    forms: u64,
    prefix: &str,
    lines: usize,
) -> Vec<(String, Instance)> {
    let base = namespace(seed, slot);
    let mut rng = Rng::new(seed ^ slot);
    let mut memo: HashMap<u64, Instance> = HashMap::new();
    (0..lines)
        .map(|i| {
            let s = base + rng.below(forms) * TRAFFIC_DUP + rng.below(TRAFFIC_DUP);
            let inst = memo
                .entry(s)
                .or_insert_with(|| msrs_gen::traffic(s, TRAFFIC_MACHINES, TRAFFIC_DUP))
                .clone();
            (with_id(&format!("{prefix}-{i}"), &inst), inst)
        })
        .collect()
}

/// The stock `traffic` stream: consecutive seeds, so nine lines in ten
/// are relabelled canonical duplicates of a recent line.
fn traffic_stream(seed: u64, slot: u64, prefix: &str, lines: usize) -> Vec<(String, Instance)> {
    let base = namespace(seed, slot);
    (0..lines)
        .map(|i| {
            let inst = msrs_gen::traffic(base + i as u64, TRAFFIC_MACHINES, TRAFFIC_DUP);
            (with_id(&format!("{prefix}-{i}"), &inst), inst)
        })
        .collect()
}

/// `cold_mix`: canonically distinct instances from all eight families.
/// Every fourth line is drawn small enough (≤ 28 jobs, m ≤ 4) for the
/// Tiny/Small tiers, so the exact solver and the EPTAS race too.
fn cold_mix(seed: u64, lines: usize) -> Vec<(String, Instance)> {
    let mut rng = Rng::new(seed ^ 0xc01d);
    let base = namespace(seed, 2);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(lines);
    let mut k = 0u64;
    // A family with few distinct instances (`adversarial` varies only in
    // m and one seed residue) hands a duplicate's slot to the next family.
    let mut shift = 0usize;
    while out.len() < lines {
        k += 1;
        let i = out.len();
        let s = base + k;
        let inst = if i % 4 == 0 {
            let m = rng.range(2, 4) as usize;
            let n = rng.range(6, 28) as usize;
            let classes = rng.range(m as u64 + 1, 8) as usize;
            if rng.below(2) == 0 {
                msrs_gen::uniform(s, m, n, classes, 1, 60)
            } else {
                msrs_gen::zipf_classes(s, m, n, classes, 1, 60)
            }
        } else {
            let family = &FAMILIES[(i - i / 4 + shift) % FAMILIES.len()];
            (family.generate)(s, rng.range(2, 6) as usize)
        };
        if seen.insert(CanonicalForm::of(&inst).fingerprint()) {
            out.push((with_id(&format!("cold-{i}"), &inst), inst));
            shift = 0;
        } else {
            shift += 1;
        }
    }
    out
}

/// The lines of `workload` for `seed`.
pub fn corpus(workload: &str, seed: u64, lines: usize) -> Result<Vec<(String, Instance)>, String> {
    Ok(match workload {
        "traffic_hot" => traffic_draws(seed, 1, HOT_FORMS, "hot", lines),
        "cold_mix" => cold_mix(seed, lines),
        "serve_open" => traffic_stream(seed, 3, "req", lines),
        "dispatch_durable" => traffic_draws(seed, 4, DISPATCH_FORMS, "d", lines),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Serve prefill: `forms` distinct `traffic` forms, disjoint from the
/// request stream (own namespace), one line each.
fn prefill(seed: u64, forms: usize) -> Vec<(String, Instance)> {
    let base = namespace(seed, 5);
    (0..forms)
        .map(|j| {
            let inst =
                msrs_gen::traffic(base + j as u64 * TRAFFIC_DUP, TRAFFIC_MACHINES, TRAFFIC_DUP);
            (with_id(&format!("pre-{j}"), &inst), inst)
        })
        .collect()
}

/// The measured input block: reuse and size properties a later gain may
/// depend on, stated with their bases.
pub fn input_block(lines: &[(String, Instance)]) -> Obj {
    let mut forms: HashMap<u128, (u64, SizeTier)> = HashMap::new();
    let mut tiers = [0u64; 4];
    let mut bytes = 0u64;
    for (text, inst) in lines {
        bytes += text.len() as u64 + 1;
        let form = CanonicalForm::of(inst);
        let entry = forms
            .entry(form.fingerprint())
            .or_insert_with(|| (0, classify(form.instance()).tier));
        entry.0 += 1;
        tiers[entry.1.index()] += 1;
    }
    let n = lines.len() as f64;
    let distinct = forms.len() as f64;
    let mut tier_mix = obj();
    for tier in SizeTier::ALL {
        tier_mix.push_u(tier.name(), tiers[tier.index()]);
    }
    obj()
        .u("requests", lines.len() as u64)
        .u("bytes", bytes)
        .u("distinct_forms", forms.len() as u64)
        .f("duplicate_share", ratio(n - distinct, n))
        .u("cache_capacity", DEFAULT_CACHE_CAPACITY as u64)
        .f(
            "working_set_over_capacity",
            distinct / DEFAULT_CACHE_CAPACITY as f64,
        )
        .o("tier_mix_lines", tier_mix)
}

fn write_lines(path: &str, lines: &[(String, Instance)]) -> Result<(), String> {
    let mut text = String::with_capacity(lines.iter().map(|(l, _)| l.len() + 1).sum());
    for (line, _) in lines {
        text.push_str(line);
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

/// `gen`: writes the corpus (and the serve prefill) and prints the input
/// block.
pub fn cmd(args: &Args) -> Result<String, String> {
    let workload = args.req("workload")?;
    let seed: u64 = args.num("seed", None)?;
    let lines: usize = args.num("lines", None)?;
    let corpus = corpus(workload, seed, lines)?;
    write_lines(args.req("out")?, &corpus)?;
    let mut block = input_block(&corpus);
    if let Some(path) = args.get("prefill-out") {
        let forms: usize = args.num("prefill", None)?;
        write_lines(path, &prefill(seed, forms))?;
        block = block.u("prefill_forms", forms as u64);
    }
    Ok(block.s("workload", workload).to_string())
}
