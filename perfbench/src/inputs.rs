//! Seeded inputs: the three patterns and the labelled texts the program
//! receives, all generated before anything is timed.

use std::io::{self, Read};

use ridfa_automata::nfa::Nfa;
use ridfa_workloads::{bible, fasta, traffic};

/// Every `REJECT_EVERY`-th input (the last of each run of 16) comes from
/// the pattern's `rejected_text` generator.
pub const REJECT_EVERY: usize = 16;

/// Largest read the stream replay returns, like a pipe.
pub const MAX_READ: usize = 64 << 10;

/// One benchmark pattern: a registry id, its regex and its NFA (the
/// serial oracle).
pub struct Pattern {
    pub id: &'static str,
    pub regex: String,
    pub nfa: Nfa,
    /// Generates an accepted text of about `len` bytes.
    accepted: fn(usize, u64) -> Vec<u8>,
    /// Generates a rejected text of about `len` bytes.
    rejected: fn(usize, u64) -> Vec<u8>,
}

/// `bible`, `fasta` and `traffic`, in round-robin order.
pub fn patterns() -> Vec<Pattern> {
    vec![
        Pattern {
            id: "bible",
            regex: bible::pattern(),
            nfa: bible::nfa(),
            accepted: bible::text,
            rejected: bible::rejected_text,
        },
        Pattern {
            id: "fasta",
            regex: fasta::pattern(),
            nfa: fasta::nfa(),
            accepted: fasta::text,
            rejected: fasta::rejected_text,
        },
        Pattern {
            id: "traffic",
            regex: traffic::pattern(),
            nfa: traffic::nfa(),
            accepted: traffic::text,
            rejected: traffic::rejected_text,
        },
    ]
}

/// The pattern file a server is bound from (`ID REGEX` lines).
pub fn spec_text(patterns: &[Pattern]) -> String {
    patterns
        .iter()
        .map(|p| format!("{} {}\n", p.id, p.regex))
        .collect()
}

/// One labelled input.
pub struct Input {
    /// Index into [`patterns`].
    pub pattern: usize,
    /// The generator's label: does the pattern accept `bytes`?
    pub accept: bool,
    pub bytes: Vec<u8>,
}

/// SplitMix64: derives independent generator seeds from the run seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` inputs of about `len` bytes: input `i` targets pattern
/// `i % 3`, and every [`REJECT_EVERY`]-th one is a rejected text.
pub fn generate(patterns: &[Pattern], seed: u64, count: usize, len: usize) -> Vec<Input> {
    (0..count)
        .map(|i| {
            let pattern = i % patterns.len();
            let accept = i % REJECT_EVERY != REJECT_EVERY - 1;
            let p = &patterns[pattern];
            let s = mix(seed ^ mix(i as u64));
            let bytes = if accept {
                (p.accepted)(len, s)
            } else {
                (p.rejected)(len, s)
            };
            Input {
                pattern,
                accept,
                bytes,
            }
        })
        .collect()
}

/// Re-checks a seeded sample of `samples` inputs against the serial NFA
/// oracle; returns each sampled index and whether the oracle agrees with
/// its label.
pub fn oracle_sample(
    patterns: &[Pattern],
    inputs: &[Input],
    seed: u64,
    samples: usize,
) -> Vec<(usize, bool)> {
    let mut state = mix(seed ^ 0x005e_ed0f_0c1e);
    (0..samples.min(inputs.len()))
        .map(|_| {
            state = mix(state);
            (state % inputs.len() as u64) as usize
        })
        .map(|i| {
            let input = &inputs[i];
            (
                i,
                patterns[input.pattern].nfa.accepts(&input.bytes) == input.accept,
            )
        })
        .collect()
}

/// Replays in-memory bytes through `Read` in reads of at most
/// [`MAX_READ`] bytes.
pub struct Replay<'a> {
    rest: &'a [u8],
}

impl<'a> Replay<'a> {
    pub fn new(bytes: &'a [u8]) -> Replay<'a> {
        Replay { rest: bytes }
    }
}

impl Read for Replay<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(MAX_READ).min(self.rest.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let pats = patterns();
        let a = generate(&pats, 7, 32, 2048);
        let b = generate(&pats, 7, 32, 2048);
        let c = generate(&pats, 8, 32, 2048);
        assert!(a.iter().zip(&b).all(|(x, y)| x.bytes == y.bytes));
        assert!(a.iter().zip(&c).any(|(x, y)| x.bytes != y.bytes));
        assert_eq!(a.iter().filter(|i| !i.accept).count(), 2);
    }

    #[test]
    fn labels_agree_with_the_oracle() {
        let pats = patterns();
        let inputs = generate(&pats, 3, 48, 4096);
        let sample = oracle_sample(&pats, &inputs, 3, 48);
        assert_eq!(sample.len(), 48);
        assert!(sample.iter().all(|&(_, agrees)| agrees));
    }

    #[test]
    fn replay_reads_are_bounded() {
        let data = vec![7u8; MAX_READ * 2 + 5];
        let mut r = Replay::new(&data);
        let mut buf = vec![0u8; MAX_READ * 4];
        assert_eq!(r.read(&mut buf).unwrap(), MAX_READ);
        assert_eq!(r.read(&mut buf).unwrap(), MAX_READ);
        assert_eq!(r.read(&mut buf).unwrap(), 5);
        assert_eq!(r.read(&mut buf).unwrap(), 0);
    }
}
