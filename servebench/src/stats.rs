//! Order statistics over measured samples.

use std::time::Duration;

/// The `p`-quantile (`0 < p <= 1`) of `values` by nearest rank; 0 when
/// empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Durations in milliseconds.
pub fn millis(values: &[Duration]) -> Vec<f64> {
    values.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fewest samples in a chunk of [`chunked`].
const MIN_CHUNK: usize = 2000;
/// Most chunks of [`chunked`].
const MAX_CHUNKS: usize = 16;

/// The mean over consecutive chunks of `values` of `f` of each chunk:
/// up to 16 equal chunks of at least 2000 samples (one chunk, the whole
/// run, when there are fewer). The host the benchmark shares switches
/// between a fast and a slow state every few seconds; a quantile taken
/// per chunk and averaged moves with the share of time spent in each
/// state, where one quantile over the whole run jumps between them.
pub fn chunked(values: &[f64], f: impl Fn(&[f64]) -> f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let chunks = (values.len() / MIN_CHUNK).clamp(1, MAX_CHUNKS);
    let per_chunk: Vec<f64> = values
        .chunks(values.len().div_ceil(chunks))
        .map(f)
        .collect();
    per_chunk.iter().sum::<f64>() / per_chunk.len() as f64
}

/// Events per second of a closed loop whose cycles took `cycles` seconds.
pub fn rate(cycles: &[f64]) -> f64 {
    ratio(cycles.len() as f64, cycles.iter().sum())
}
