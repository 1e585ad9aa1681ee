//! Miniature real computations backing each kernel.
//!
//! Each function returns a checksum so the work cannot be optimized
//! away and so tests can pin behaviour. Sizes are small (the *simulated*
//! compute cost is charged separately through the latency model); what
//! matters is that the kernels are genuine implementations of the
//! workloads' algorithms, giving the catalog honest, testable
//! semantics.

use crate::spec::KernelKind;

/// Runs one miniature computation, seeded deterministically.
pub fn run_kernel(kind: KernelKind, seed: u64) -> u64 {
    match kind {
        KernelKind::Time => seed ^ 0x5DEECE66D,
        KernelKind::Sort => sort(seed),
        KernelKind::Hash => fnv_hash(seed, 4096),
        KernelKind::Image => stencil(seed),
        KernelKind::Search => search(seed),
        KernelKind::WordCount => word_count(seed),
        KernelKind::Transaction => transaction(seed),
        KernelKind::Fft => fft_checksum(seed),
        KernelKind::Fibonacci => fibonacci(40 + (seed % 10)),
        KernelKind::Matrix => matmul(seed),
        KernelKind::Pi => pi_digits(seed),
        // Bound the input so trial division stays ~10⁴ steps even for
        // near-prime inputs.
        KernelKind::Factor => factorize((seed & 0x0FFF_FFFF) | 1),
        KernelKind::UnionFind => union_find(seed),
        KernelKind::Html => html(seed),
        KernelKind::Aggregate => aggregate(seed),
    }
}

/// Entry `i` of a kernel buffer: the one place a kernel indexes one.
fn at<T>(buf: &mut [T], i: u32) -> &mut T {
    &mut buf[i as usize] // tidy:allow(panic-reachability) -- kernels draw indices modulo their fixed buffer lengths
}

/// xorshift64* PRNG used by the kernels.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

fn sort(seed: u64) -> u64 {
    let mut s = seed | 1;
    let mut v: Vec<u32> = (0..2048).map(|_| xorshift(&mut s) as u32).collect();
    v.sort_unstable();
    // Minimum, median and maximum.
    v.iter().step_by(1024).chain(v.last()).fold(0, |h, &x| h ^ x as u64)
}

fn fnv_hash(seed: u64, len: usize) -> u64 {
    let mut s = seed | 1;
    let mut h: u64 = 0xcbf29ce484222325;
    for _ in 0..len {
        h ^= xorshift(&mut s) & 0xFF;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn stencil(seed: u64) -> u64 {
    // A 3×3 box blur over a 64×64 "image".
    let mut s = seed | 1;
    let n = 64usize;
    let img: Vec<u16> = (0..n * n).map(|_| (xorshift(&mut s) & 0xFF) as u16).collect();
    let rows = || img.chunks_exact(n);
    let mut out = 0u64;
    for ((up, mid), down) in rows().zip(rows().skip(1)).zip(rows().skip(2)) {
        for ((a, b), c) in up.windows(3).zip(mid.windows(3)).zip(down.windows(3)) {
            let acc: u32 = a.iter().chain(b).chain(c).map(|&p| p as u32).sum();
            out = out.wrapping_add((acc / 9) as u64);
        }
    }
    out
}

fn search(seed: u64) -> u64 {
    // Score 512 "hotels" by a preference vector and return the argmax.
    let mut s = seed | 1;
    let mut best = (0u64, 0usize);
    for i in 0..512 {
        let price = xorshift(&mut s) % 500;
        let rating = xorshift(&mut s) % 50;
        let distance = xorshift(&mut s) % 100;
        let score = rating * 20 + (500 - price) + (100 - distance) * 3;
        if score > best.0 {
            best = (score, i);
        }
    }
    best.0 ^ best.1 as u64
}

fn word_count(seed: u64) -> u64 {
    // Count "words" (runs between separator tokens) in generated text.
    let mut s = seed | 1;
    let mut words = 0u64;
    let mut in_word = false;
    for _ in 0..8192 {
        let c = xorshift(&mut s) % 8;
        if c == 0 {
            in_word = false;
        } else if !in_word {
            in_word = true;
            words += 1;
        }
    }
    words
}

fn transaction(seed: u64) -> u64 {
    // A specjbb-like purchase: pick items, compute totals and tax.
    let mut s = seed | 1;
    let mut total = 0u64;
    for _ in 0..64 {
        let qty = xorshift(&mut s) % 5 + 1;
        let price = xorshift(&mut s) % 10_000;
        total += qty * price;
    }
    total + total / 12
}

fn fft_checksum(seed: u64) -> u64 {
    // Iterative radix-2 FFT over 256 points.
    let n = 256usize;
    let mut s = seed | 1;
    let mut re: Vec<f64> = (0..n).map(|_| (xorshift(&mut s) % 1000) as f64 / 1000.0).collect();
    let mut im = vec![0.0f64; n];
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        for (re, im) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
            // Butterflies pair element k of each block's low half with
            // element k of its high half.
            let (re_lo, re_hi) = re.split_at_mut(len / 2);
            let (im_lo, im_hi) = im.split_at_mut(len / 2);
            let lo = re_lo.iter_mut().zip(im_lo.iter_mut());
            let hi = re_hi.iter_mut().zip(im_hi.iter_mut());
            for (k, ((ur, ui), (xr, xi))) in lo.zip(hi).enumerate() {
                let (wr, wi) = ((ang * k as f64).cos(), (ang * k as f64).sin());
                let (vr, vi) = (*xr * wr - *xi * wi, *xr * wi + *xi * wr);
                (*xr, *xi) = (*ur - vr, *ui - vi);
                (*ur, *ui) = (*ur + vr, *ui + vi);
            }
        }
        len <<= 1;
    }
    let energy: f64 = re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum();
    energy as u64
}

fn fibonacci(n: u64) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        let t = a.wrapping_add(b);
        a = b;
        b = t;
    }
    a
}

fn matmul(seed: u64) -> u64 {
    let n = 32usize;
    let mut s = seed | 1;
    let a: Vec<i64> = (0..n * n).map(|_| (xorshift(&mut s) % 100) as i64).collect();
    let b: Vec<i64> = (0..n * n).map(|_| (xorshift(&mut s) % 100) as i64).collect();
    let mut acc = 0i64;
    for row in a.chunks_exact(n) {
        for j in 0..n {
            let column = b.iter().skip(j).step_by(n);
            let c: i64 = row.iter().zip(column).map(|(x, y)| x * y).sum();
            acc = acc.wrapping_add(c);
        }
    }
    acc as u64
}

fn pi_digits(seed: u64) -> u64 {
    // Leibniz series; the seed varies the iteration count slightly.
    let iters = 20_000 + (seed % 1000);
    let mut acc = 0.0f64;
    for k in 0..iters {
        let term = if k % 2 == 0 { 1.0 } else { -1.0 } / (2 * k + 1) as f64;
        acc += term;
    }
    (acc * 4.0 * 1e9) as u64
}

fn factorize(mut n: u64) -> u64 {
    let mut sum = 0u64;
    let mut d = 2u64;
    while d * d <= n {
        while n.is_multiple_of(d) {
            sum = sum.wrapping_add(d);
            n /= d;
        }
        d += 1;
    }
    sum.wrapping_add(n)
}

fn union_find(seed: u64) -> u64 {
    let n = 4096usize;
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        // Path halving: point every other node at its grandparent.
        while *at(parent, x) != x {
            let up = *at(parent, x);
            let grandparent = *at(parent, up);
            *at(parent, x) = grandparent;
            x = grandparent;
        }
        x
    }
    let mut s = seed | 1;
    for _ in 0..8192 {
        let a = (xorshift(&mut s) % n as u64) as u32;
        let b = (xorshift(&mut s) % n as u64) as u32;
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            *at(&mut parent, ra) = rb;
        }
    }
    // Count components.
    (0..n as u32).filter(|&i| find(&mut parent, i) == i).count() as u64
}

fn html(seed: u64) -> u64 {
    // Render a table template into a string and hash it.
    let mut s = seed | 1;
    let mut page = String::with_capacity(8192);
    page.push_str("<html><body><table>");
    for _ in 0..64 {
        let v = xorshift(&mut s) % 100_000;
        page.push_str("<tr><td>");
        page.push_str(&v.to_string());
        page.push_str("</td></tr>");
    }
    page.push_str("</table></body></html>");
    page.bytes().fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64))
}

fn aggregate(seed: u64) -> u64 {
    // Group-by-sum over generated rows.
    let mut s = seed | 1;
    let mut groups = [0u64; 16];
    for _ in 0..4096 {
        let key = (xorshift(&mut s) % 16) as u32;
        let val = xorshift(&mut s) % 1000;
        *at(&mut groups, key) += val;
    }
    groups.iter().fold(0u64, |a, g| a.wrapping_mul(7).wrapping_add(*g))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic() {
        for kind in [
            KernelKind::Time,
            KernelKind::Sort,
            KernelKind::Hash,
            KernelKind::Image,
            KernelKind::Search,
            KernelKind::WordCount,
            KernelKind::Transaction,
            KernelKind::Fft,
            KernelKind::Fibonacci,
            KernelKind::Matrix,
            KernelKind::Pi,
            KernelKind::Factor,
            KernelKind::UnionFind,
            KernelKind::Html,
            KernelKind::Aggregate,
        ] {
            assert_eq!(run_kernel(kind, 42), run_kernel(kind, 42), "{kind:?}");
        }
    }

    /// Every kernel's checksum at seed 42, and an FNV-1a fold of all
    /// fifteen over seeds `0..64`. The kernels' buffers are indexed
    /// through iterators and split slices; these values pin that the
    /// arithmetic, including the FFT's floating-point operation order,
    /// is the original one.
    #[test]
    fn kernels_match_pinned_checksums() {
        let pinned = [
            (KernelKind::Time, 0x5deece647),
            (KernelKind::Sort, 0x812fec80),
            (KernelKind::Hash, 0x69f9d10a3002fc43),
            (KernelKind::Image, 0x78d17),
            (KernelKind::Search, 0x6b7),
            (KernelKind::WordCount, 0x387),
            (KernelKind::Transaction, 0xf684b),
            (KernelKind::Fft, 0x5460),
            (KernelKind::Fibonacci, 0xff80c38),
            (KernelKind::Matrix, 0x4b21817),
            (KernelKind::Pi, 0xbb402366),
            (KernelKind::Factor, 0x2b),
            (KernelKind::UnionFind, 0x54),
            (KernelKind::Html, 0x7c2aa54eb982a93d),
            (KernelKind::Aggregate, 0x9ced7ec491f1bc2),
        ];
        for (kind, want) in pinned {
            assert_eq!(run_kernel(kind, 42), want, "{kind:?}");
        }
        let mut h: u64 = 0xcbf29ce484222325;
        for seed in 0..64 {
            for (kind, _) in pinned {
                for b in run_kernel(kind, seed).to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
                }
            }
        }
        assert_eq!(h, 0x821f_32f0_0af3_5d0d, "seed sweep digest");
    }

    #[test]
    fn seeds_change_results() {
        assert_ne!(run_kernel(KernelKind::Sort, 1), run_kernel(KernelKind::Sort, 2));
        assert_ne!(run_kernel(KernelKind::Fft, 1), run_kernel(KernelKind::Fft, 2));
    }

    #[test]
    fn fibonacci_is_correct() {
        assert_eq!(fibonacci(10), 55);
        assert_eq!(fibonacci(20), 6765);
    }

    #[test]
    fn factorize_sums_prime_factors() {
        // 84 = 2·2·3·7 → 14.
        assert_eq!(factorize(84), 14);
        // A prime returns itself.
        assert_eq!(factorize(97), 97);
    }

    #[test]
    fn union_find_counts_components() {
        // With thousands of random unions over 4096 nodes, far fewer
        // components than nodes remain, and at least one.
        let c = union_find(7);
        assert!((1..4096).contains(&c));
    }

    #[test]
    fn fft_energy_is_positive() {
        assert!(fft_checksum(3) > 0);
    }
}
