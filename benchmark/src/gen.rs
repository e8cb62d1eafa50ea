//! Seeded input generation: a small PRNG and the MF source generator
//! of the `compile` workload. Nothing here names a type of the program
//! under test; the generator emits source *text*.

/// SplitMix64: the whole state is one word, every seed is valid, and
/// the stream is the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A multiple of 0.25 in `[0.25, 4.0]`: exact in binary, so the
    /// printed source parses back to the same constant.
    pub fn coefficient(&mut self) -> f64 {
        (1 + self.below(16)) as f64 * 0.25
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a over bytes: the hash the correctness checks compare.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// How a generated loop relates to the reference loop `A`, which
/// rewrites columns of `q` under a data mask (the paper's Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopKind {
    /// Reads `q`: interferes with `A` directly, so split must divide
    /// its iterations.
    Bound,
    /// Reads what an earlier Bound loop wrote: interferes with `A`
    /// only transitively.
    Linked,
    /// Touches arrays nothing else does.
    Free,
}

/// One generated MF program: the reference loop `A` followed by
/// `loops - 1` labelled loops that cycle Bound, Linked, Free. The seed
/// draws the coefficients and which Bound loop each Linked loop reads;
/// the number and order of the kinds depend only on `loops`, so every
/// seed compiles programs of the same size and shape, and the set-to-set
/// spread of the `compile` workload is the host's, not the generator's.
pub fn mf_program(name: &str, loops: usize, extent: usize, rng: &mut Rng) -> String {
    assert!(loops >= 2, "a program needs the reference loop and one more");
    // Bound comes first in the cycle: a Linked loop needs one before it.
    let kinds = (0..loops - 1).map(|k| match k % 3 {
        0 => LoopKind::Bound,
        1 => LoopKind::Linked,
        _ => LoopKind::Free,
    });

    let mut decls = String::new();
    let mut body = String::new();
    let c = rng.coefficient();
    body.push_str(&format!(
        "  A: do col = 1, n where (mask[col] <> 0) {{\n    do i = 1, n {{\n      result[i] = q[col, i] * {c:?} + q[i, i]\n    }}\n    do i = 1, n {{\n      q[i, col] = result[i]\n    }}\n  }}\n"
    ));
    let mut bound_outputs: Vec<String> = Vec::new();
    for (k, kind) in kinds.enumerate() {
        let out = format!("w{k}");
        decls.push_str(&format!("  float {out}[1..n, 1..n]\n"));
        let c = rng.coefficient();
        let rhs = match kind {
            LoopKind::Bound => {
                bound_outputs.push(out.clone());
                format!("f(q[j, i]) * {c:?}")
            }
            LoopKind::Linked => {
                let src = &bound_outputs[rng.below(bound_outputs.len() as u64) as usize];
                format!("{src}[j, i] + {c:?}")
            }
            LoopKind::Free => {
                let src = format!("u{k}");
                decls.push_str(&format!("  float {src}[1..n, 1..n]\n"));
                format!("g({src}[j, i]) * {c:?} + i")
            }
        };
        body.push_str(&format!(
            "  L{k}: do i = 1, n {{\n    do j = 1, n {{\n      {out}[j, i] = {rhs}\n    }}\n  }}\n"
        ));
    }
    format!(
        "program {name}\n  integer n = {extent}\n  integer mask[1..n]\n  float q[1..n, 1..n], result[1..n]\n{decls}{body}end\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_program_other_seed_other_program() {
        let text = |seed| mf_program("p", 10, 8, &mut Rng::new(seed));
        assert_eq!(text(7), text(7));
        assert_ne!(text(7), text(8));
        assert_eq!(fnv1a(text(7).as_bytes()), fnv1a(text(7).as_bytes()));
        assert_ne!(fnv1a(text(7).as_bytes()), fnv1a(text(8).as_bytes()));
    }

    #[test]
    fn every_seed_has_the_same_loop_mix() {
        for seed in 0..20 {
            let text = mf_program("p", 30, 8, &mut Rng::new(seed));
            assert_eq!(text.matches(": do ").count(), 30, "seed {seed}");
            assert_eq!(text.matches("f(q[j, i])").count(), 10, "seed {seed}: Bound loops");
            assert_eq!(text.matches("g(u").count(), 9, "seed {seed}: Free loops");
            assert!(text.find("L0:").is_some_and(|at| text[at..].starts_with("L0: do i")));
        }
    }

    #[test]
    fn coefficients_print_exactly() {
        let mut rng = Rng::new(1);
        for _ in 0..100 {
            let c = rng.coefficient();
            assert_eq!(format!("{c:?}").parse::<f64>().unwrap(), c);
            assert!((0.25..=4.0).contains(&c));
        }
    }
}
