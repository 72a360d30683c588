//! A small seeded generator (SplitMix64), so that scripts depend on
//! nothing but `--seed` and this file.

#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for a named part of a script, so adding
    /// draws to one part does not shift another.
    pub fn fork(&self, salt: u64) -> Rng {
        let mut r = Rng(self.0 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // The bias of a plain modulo is below 2^-40 for every n used
        // here, far under what any metric resolves.
        self.next_u64() % n
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() > 1.0 - p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// One point in each of `n` equal strata of `lo..hi`, at a drawn
    /// place inside its stratum, in ascending order. Read targets are
    /// drawn this way and then shuffled: every seed covers the history
    /// (and with it every distance to a keyframe, every phase of an
    /// activity cycle) as evenly as every other, so a percentile over
    /// the reads differs between seeds by content, not by the luck of
    /// where a few hundred independent draws happened to fall.
    pub fn stratified(&mut self, n: usize, lo: u64, hi: u64) -> Vec<u64> {
        let width = (hi - lo) as f64 / n as f64;
        (0..n)
            .map(|i| lo + ((i as f64 + self.unit()) * width) as u64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_puts_one_point_in_each_stratum() {
        let points = Rng::new(9).stratified(10, 100, 200);
        for (i, p) in points.iter().enumerate() {
            assert!((100 + 10 * i as u64..110 + 10 * i as u64).contains(p));
        }
    }

    #[test]
    fn shuffle_keeps_every_item() {
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(3).shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
