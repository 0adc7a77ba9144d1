//! Small helpers shared by the workloads: seed derivation, the simulation
//! digest, order statistics and the process's peak resident memory.

/// One SplitMix64 scramble: how every input of a run is derived from the
/// workload seed, so neighbouring seeds land in unrelated input streams.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An order-sensitive FNV-1a fold over exact simulated quantities (seeds,
/// convergence steps, search scores).  Two builds that simulate the same
/// interactions print the same digest; any change of RNG stream shows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one value in.
    pub fn push(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The median of `values` (the mean of the middle two for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail statistic of a sample: the highest percentile with at least
/// ten samples beyond it once that is the 90th or higher (100 samples or
/// more), and the maximum below that.
pub fn tail(values: &[f64]) -> f64 {
    if values.len() < 100 {
        return values.iter().copied().fold(0.0, f64::max);
    }
    quantile(values, 1.0 - 10.0 / values.len() as f64)
}

/// `num / den`, or `0.0` when `den` is zero (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident memory of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(tail(&[1.0, 5.0, 2.0]), 5.0);
        let some: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&some), 40.0);
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        // The 95th percentile: ten samples beyond it.
        assert!((tail(&many) - 190.05).abs() < 1e-9);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.push(1);
        a.push(2);
        b.push(2);
        b.push(1);
        assert_ne!(a, b);
        assert_eq!(a.hex().len(), 16);
    }
}
