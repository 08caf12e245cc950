//! Seeded inputs. Every input is a pure function of the `--seed` argument:
//! the same seed gives byte-identical programs and scripts, another seed
//! gives different ones of the same size, so run-to-run figures stay
//! comparable across seeds.

use ped_workloads::generator::{gen_concat_source, GenConfig};

/// Programs in the `batch` corpus.
pub const BATCH_PROGRAMS: usize = 10;
/// Concatenated copies per batch program (about 2,000 lines each).
pub const BATCH_COPIES: usize = 10;

/// One input program of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    pub name: String,
    pub source: String,
}

impl Input {
    pub fn lines(&self) -> usize {
        self.source.lines().count()
    }
}

/// SplitMix64 step over `(seed, stream)`: independent, reproducible
/// sub-seeds without pulling in an RNG crate.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `batch` corpus: generated multi-unit programs of about 2,000 lines
/// each (ten concatenated, independently seeded copies of the default
/// generator shape).
pub fn batch_corpus(seed: u64) -> Vec<Input> {
    (0..BATCH_PROGRAMS)
        .map(|k| {
            // Copy `c` of program `k` uses seed `base + c`; spacing the bases
            // keeps every copy of every program distinct.
            let base = mix(seed, k as u64) >> 8;
            let cfg = GenConfig {
                seed: base,
                ..GenConfig::default()
            };
            Input {
                name: format!("gen{k}"),
                source: gen_concat_source(cfg, BATCH_COPIES),
            }
        })
        .collect()
}

/// A seeded real constant in `[lo, lo + 0.001)`, printed with fixed digits
/// so the source text is a function of the seed alone.
fn constant(seed: u64, stream: u64, lo: f64) -> String {
    format!("{:.6}", lo + (mix(seed, stream) % 1000) as f64 * 1e-6)
}

/// Trip counts of the three kernels, sized so one serial run of each takes
/// tens of milliseconds on the bytecode engine.
pub const VSCALE_N: u64 = 600_000;
pub const DOTRED_N: u64 = 1_000_000;
pub const TRI_N: u64 = 3_000;

/// The `kernels` inputs: three serial kernels with no parallel markings.
/// The seed changes the data, never the trip counts, so the work per run
/// is the same on every seed.
pub fn kernels(seed: u64) -> Vec<Input> {
    let (c1, c2, c3) = (
        constant(seed, 1, 0.001),
        constant(seed, 2, 0.5),
        constant(seed, 3, 0.002),
    );
    let vscale = format!(
        "program vscale\n\
         integer n\n\
         parameter (n = {VSCALE_N})\n\
         real a(n), b(n)\n\
         real t\n\
         do i = 1, n\n\
         \x20 a(i) = {c1} * i\n\
         enddo\n\
         do i = 1, n\n\
         \x20 t = a(i) * 2.0 + 1.0\n\
         \x20 b(i) = t * t + a(i)\n\
         enddo\n\
         print *, b(1), b(n / 2), b(n), t\n\
         end\n"
    );
    let dotred = format!(
        "program dotred\n\
         integer n\n\
         parameter (n = {DOTRED_N})\n\
         real a(n), b(n)\n\
         real s\n\
         do i = 1, n\n\
         \x20 a(i) = {c1} * i\n\
         \x20 b(i) = {c2} / i\n\
         enddo\n\
         s = 0.0\n\
         do i = 1, n\n\
         \x20 s = s + a(i) * b(i)\n\
         enddo\n\
         print *, s\n\
         end\n"
    );
    let tri = format!(
        "program tri\n\
         integer n\n\
         parameter (n = {TRI_N})\n\
         real a(n), b(n)\n\
         real t\n\
         do i = 1, n\n\
         \x20 a(i) = {c3} * i\n\
         enddo\n\
         do i = 1, n\n\
         \x20 t = 0.0\n\
         \x20 do j = 1, i\n\
         \x20   t = t + a(j) * 0.5\n\
         \x20 enddo\n\
         \x20 b(i) = t\n\
         enddo\n\
         print *, b(1), b(n / 2), b(n)\n\
         end\n"
    );
    [("vscale", vscale), ("dotred", dotred), ("tri", tri)]
        .into_iter()
        .map(|(name, source)| Input {
            name: name.to_string(),
            source,
        })
        .collect()
}

/// The nine suite programs the `session` clients cycle through.
pub fn suite() -> Vec<Input> {
    ped_workloads::all_programs()
        .into_iter()
        .map(|w| Input {
            name: w.name.to_string(),
            source: w.source.to_string(),
        })
        .collect()
}

/// Each client's order over `programs` inputs: a seeded permutation per
/// client (Fisher–Yates over SplitMix64 draws).
pub fn client_orders(seed: u64, clients: usize, programs: usize) -> Vec<Vec<usize>> {
    (0..clients)
        .map(|c| {
            let mut order: Vec<usize> = (0..programs).collect();
            for i in (1..programs).rev() {
                let j = (mix(seed, 1_000 + (c * programs + i) as u64) % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            order
        })
        .collect()
}

/// The session script as text: one line per client naming its program
/// order. The per-program steps (open, analyze, suggest, parallelize the
/// safe nests, analyze, check, undo all, analyze, redo all, analyze,
/// close) are fixed; which nests get parallelized follows from `suggest`.
pub fn script_text(seed: u64, clients: usize, inputs: &[Input]) -> String {
    client_orders(seed, clients, inputs.len())
        .iter()
        .enumerate()
        .map(|(c, order)| {
            let names: Vec<&str> = order.iter().map(|&i| inputs[i].name.as_str()).collect();
            format!("client {c}: {}\n", names.join(" "))
        })
        .collect()
}
