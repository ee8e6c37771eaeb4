//! Fused-vs-oracle parity: the fused multi-pattern scan must produce
//! *byte-for-byte identical* [`ScanReport`]s to the per-rule reference
//! scan (`Ruleset::scan_per_rule`, one standalone DFA pass per rule) on
//! every input — seeds, planted-match payloads across MTBR levels, every
//! anchor flavour, and payload lengths 0–4096. The fused path is only a
//! performance strategy; any observable difference is a bug. A batch
//! scan (`Ruleset::scan_batch`, four payloads stepped in lockstep) must
//! report, for each payload, what `scan_into` and the oracle report.

use yala_rxp::ruleset::match_seeds;
use yala_rxp::{l7_default_ruleset, BatchScan, Ruleset, ScanReport};

/// Deterministic LCG so the corpus is reproducible without pulling the
/// traffic crate (which depends on this one).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Filler alphabet inert against the default ruleset (mirrors the traffic
/// generator's choice).
const FILLER: &[u8] = b"qwzjkvyxubnmfdgh QWZJKVYXUBNM";

/// Builds a payload of `len` filler bytes with `planted` whole match seeds
/// embedded at random non-overlapping-ish offsets (one filler byte of
/// separation, like the traffic generator).
fn payload_with_seeds(rng: &mut Lcg, len: usize, planted: usize) -> Vec<u8> {
    let mut out: Vec<u8> = (0..len).map(|_| FILLER[rng.below(FILLER.len())]).collect();
    let seeds = match_seeds();
    for _ in 0..planted {
        let seed = seeds[rng.below(seeds.len())].1;
        if seed.len() + 2 >= len {
            continue;
        }
        let at = 1 + rng.below(len - seed.len() - 2);
        out[at..at + seed.len()].copy_from_slice(seed);
    }
    out
}

/// Asserts fused == oracle on one payload, also exercising the reusable
/// scratch-report path.
fn assert_parity(rs: &Ruleset, scratch: &mut ScanReport, payload: &[u8], what: &str) {
    let oracle = rs.scan_per_rule(payload);
    let fused = rs.scan(payload);
    assert_eq!(fused, oracle, "scan() diverged from oracle on {what}");
    rs.scan_into(payload, scratch);
    assert_eq!(
        *scratch, oracle,
        "scan_into() diverged from oracle on {what}"
    );
}

#[test]
fn default_ruleset_fuses_fully() {
    let rs = l7_default_ruleset();
    assert_eq!(
        rs.fused_rule_count(),
        rs.len(),
        "every default rule should fuse within the state budget"
    );
    assert!(rs.fused_state_count() > 0);
}

#[test]
fn parity_on_match_seed_corpus() {
    let rs = l7_default_ruleset();
    let mut scratch = ScanReport::default();
    for (name, seed) in match_seeds() {
        assert_parity(&rs, &mut scratch, seed, name);
        // Seed embedded mid-payload, front, and back.
        let mut rng = Lcg(0xC0FFEE ^ seed.len() as u64);
        for len in [64usize, 256, 1500] {
            let mut p = payload_with_seeds(&mut rng, len, 0);
            let at = (len - seed.len()) / 2;
            p[at..at + seed.len()].copy_from_slice(seed);
            assert_parity(&rs, &mut scratch, &p, name);
            p[..seed.len()].copy_from_slice(seed);
            assert_parity(&rs, &mut scratch, &p, name);
            let tail = len - seed.len();
            p[tail..].copy_from_slice(seed);
            assert_parity(&rs, &mut scratch, &p, name);
        }
    }
}

#[test]
fn parity_across_mtbr_levels() {
    let rs = l7_default_ruleset();
    let mut scratch = ScanReport::default();
    let mut rng = Lcg(42);
    for &mtbr in &[0.0f64, 100.0, 1000.0, 10_000.0] {
        for len in [60usize, 256, 1446, 4096] {
            for _ in 0..25 {
                let planted = (mtbr / 1e6 * len as f64).ceil() as usize;
                let p = payload_with_seeds(&mut rng, len, planted);
                assert_parity(&rs, &mut scratch, &p, &format!("mtbr={mtbr} len={len}"));
            }
        }
    }
}

#[test]
fn parity_on_payload_length_sweep() {
    let rs = l7_default_ruleset();
    let mut scratch = ScanReport::default();
    let mut rng = Lcg(7);
    for len in 0..=128 {
        let p = payload_with_seeds(&mut rng, len, usize::from(len > 24));
        assert_parity(&rs, &mut scratch, &p, &format!("len={len}"));
    }
    for len in (256..=4096).step_by(193) {
        let p = payload_with_seeds(&mut rng, len, 2);
        assert_parity(&rs, &mut scratch, &p, &format!("len={len}"));
    }
}

/// Every anchor flavour, including overlapping and resetting rules, on
/// crafted and random payloads.
#[test]
fn parity_on_anchor_flavours() {
    let rs = Ruleset::compile(vec![
        ("head", r"^GET [a-z]+"),
        ("tail", r"[0-9]{3}$"),
        ("exact", r"^HELLO$"),
        ("plain", r"abc"),
        ("overlap_a", r"ab"),
        ("overlap_b", r"b"),
        ("reset", r"aa"),
        ("ci", r"(?i)foo(bar)?"),
        ("alt", r"cat|dog|bird"),
        ("class", r"[xyz]{2,4}w"),
    ])
    .unwrap();
    let mut scratch = ScanReport::default();
    let crafted: &[&[u8]] = &[
        b"",
        b"GET abc 123",
        b"HELLO",
        b"HELLO ",
        b" HELLO",
        b"ab",
        b"bab",
        b"aaaa",
        b"aaaaaa",
        b"GET zzz FOOBAR cat dog xyzw 999",
        b"abcabcabc",
        b"xyzxyzw 123",
        b"foofoobar",
        b"catdogbird",
        b"GET a",
        b"123",
        b"12",
    ];
    for p in crafted {
        assert_parity(&rs, &mut scratch, p, &format!("crafted {:?}", p));
    }
    // Random payloads over a small alphabet rich in rule bytes, so anchors,
    // overlaps, and resets all fire frequently.
    let alpha = b"abcdogGET xyzw123HELOfr";
    let mut rng = Lcg(1234);
    for len in 0..200usize {
        let p: Vec<u8> = (0..len).map(|_| alpha[rng.below(alpha.len())]).collect();
        assert_parity(&rs, &mut scratch, &p, &format!("random len={len}"));
    }
    for _ in 0..50 {
        let len = 500 + rng.below(3596);
        let p: Vec<u8> = (0..len).map(|_| alpha[rng.below(alpha.len())]).collect();
        assert_parity(&rs, &mut scratch, &p, &format!("random long len={len}"));
    }
}

/// A budget too small to fuse anything must fall back to per-rule scanning
/// with identical reports — the strategy is invisible through the API.
#[test]
fn parity_under_forced_fallback() {
    let patterns = vec![
        ("http", r"(?i)(get|post) /[!-~]* http/1\.[01]"),
        ("ssh", r"(?i)ssh-[12]\.[0-9]"),
        ("sqli", r"(?i)' or 1=1"),
        ("tail", r"[0-9]{3}$"),
        ("head", r"^SSH"),
    ];
    let fused = Ruleset::compile(patterns.clone()).unwrap();
    let unfused = Ruleset::compile_with_budget(patterns.clone(), 1).unwrap();
    assert!(fused.fused_rule_count() > 0);
    assert_eq!(unfused.fused_rule_count(), 0, "budget 1 fuses nothing");
    // A mid-size budget splits: some rules fused, some fall back.
    let split = Ruleset::compile_with_budget(patterns, 40).unwrap();
    let mut rng = Lcg(99);
    let mut scratch = ScanReport::default();
    for _ in 0..60 {
        let len = rng.below(2048);
        let mut p = payload_with_seeds(&mut rng, len, 1);
        if len > 40 {
            p[..20].copy_from_slice(b"GET /idx http/1.1 qq");
        }
        let oracle = fused.scan_per_rule(&p);
        for (rs, what) in [(&fused, "fused"), (&unfused, "unfused"), (&split, "split")] {
            assert_eq!(rs.scan(&p), oracle, "{what} diverged");
            rs.scan_into(&p, &mut scratch);
            assert_eq!(scratch, oracle, "{what} scan_into diverged");
        }
    }
}

/// The scratch report must give identical results regardless of what it
/// held before (stale counts, wrong size).
#[test]
fn scratch_reuse_is_stateless() {
    let rs = l7_default_ruleset();
    let payload = b"GET /idx.html HTTP/1.1 qq SSH-2.0-OpenSSH_8.9";
    let expected = rs.scan(payload);
    let mut scratch = ScanReport {
        per_rule: vec![777; 3],
        total_matches: 99,
        bytes_scanned: 12345,
    };
    rs.scan_into(payload, &mut scratch);
    assert_eq!(scratch, expected);
}

/// Asserts that scanning `payloads` as one batch into `batch` (reused,
/// so it holds whatever the last batch left) reports, for each payload,
/// what `scan_into` and the per-rule oracle report.
fn assert_batch_parity(rs: &Ruleset, batch: &mut BatchScan, payloads: &[Vec<u8>], what: &str) {
    rs.scan_batch(payloads.iter().map(Vec::as_slice), batch);
    assert_eq!(batch.len(), payloads.len(), "{what}: payloads scanned");
    let mut scratch = ScanReport::default();
    for (i, p) in payloads.iter().enumerate() {
        let oracle = rs.scan_per_rule(p);
        rs.scan_into(p, &mut scratch);
        assert_eq!(scratch, oracle, "{what}: scan_into of payload {i}");
        assert_eq!(batch.per_rule(i), oracle.per_rule, "{what}: payload {i}");
        assert_eq!(
            batch.total_matches(i),
            oracle.total_matches,
            "{what}: payload {i}"
        );
    }
}

/// Filler payloads of the given lengths, each with about one planted
/// seed per 200 bytes.
fn corpus(rng: &mut Lcg, lens: &[usize]) -> Vec<Vec<u8>> {
    lens.iter()
        .map(|&len| payload_with_seeds(rng, len, len / 200))
        .collect()
}

#[test]
fn batch_parity_across_batch_sizes() {
    let rs = l7_default_ruleset();
    let mut batch = BatchScan::default();
    let mut rng = Lcg(0xBA7C);
    for n in [0usize, 1, 3, 4, 5, 64] {
        let equal = corpus(&mut rng, &vec![1500; n]);
        assert_batch_parity(&rs, &mut batch, &equal, &format!("{n} x 1500 B"));
        let lens: Vec<usize> = (0..n).map(|_| rng.below(1600)).collect();
        let unequal = corpus(&mut rng, &lens);
        assert_batch_parity(&rs, &mut batch, &unequal, &format!("{n} of {lens:?} B"));
    }
}

/// Empty and unequal payloads in every lane of a four-payload group, and
/// groups whose shortest payload is in each lane.
#[test]
fn batch_parity_on_unequal_and_empty_lanes() {
    let rs = l7_default_ruleset();
    let mut batch = BatchScan::default();
    let mut rng = Lcg(0xE3);
    let shapes: &[[usize; 4]] = &[
        [0, 0, 0, 0],
        [0, 700, 700, 700],
        [700, 0, 700, 700],
        [700, 700, 0, 700],
        [700, 700, 700, 0],
        [1, 0, 1500, 7],
        [1500, 64, 65, 1499],
        [30, 1500, 1500, 1500],
        [1500, 1500, 30, 1500],
    ];
    for shape in shapes {
        for _ in 0..5 {
            let payloads = corpus(&mut rng, shape);
            assert_batch_parity(&rs, &mut batch, &payloads, &format!("lanes {shape:?}"));
            // The same group after a full one, and a group of five.
            let mut two = corpus(&mut rng, &[400; 4]);
            two.extend(payloads.iter().cloned());
            assert_batch_parity(&rs, &mut batch, &two, &format!("4 x 400 then {shape:?}"));
            two.push(payloads[0].clone());
            assert_batch_parity(&rs, &mut batch, &two, &format!("... {shape:?} and one"));
        }
    }
}

/// A seed whose last byte is its lane's last byte, in each lane, with that
/// lane the shortest of its group (its end is the lockstep's end), in the
/// middle, and the longest (its end is in its own tail).
#[test]
fn batch_parity_with_a_seed_ending_on_a_lane_end() {
    let rs = l7_default_ruleset();
    let mut batch = BatchScan::default();
    let mut rng = Lcg(0x5EED);
    for (name, seed) in match_seeds() {
        for lane in 0..4 {
            for len in [seed.len(), 200, 600, 1000] {
                let mut payloads = corpus(&mut rng, &[600; 4]);
                let mut p = payload_with_seeds(&mut rng, len, 0);
                p[len - seed.len()..].copy_from_slice(seed);
                payloads[lane] = p;
                let what = format!("{name} ending lane {lane} of {len} B");
                assert_batch_parity(&rs, &mut batch, &payloads, &what);
            }
        }
    }
}

/// `^…`, `…$` and `^…$` rules matching, or just missing, at each lane's end
/// of payload.
#[test]
fn batch_parity_on_anchors_at_each_lane_end() {
    let rs = Ruleset::compile(vec![
        ("head", r"^GET [a-z]+"),
        ("tail", r"[0-9]{3}$"),
        ("exact", r"^HELLO$"),
        ("plain", r"abc"),
        ("reset", r"aa"),
    ])
    .unwrap();
    let mut batch = BatchScan::default();
    let mut rng = Lcg(0xA4C);
    let alpha = b"abcdogGET xyzw123HELOfr";
    let ends: &[&[u8]] = &[
        b"HELLO", b"HELLO ", b"GET abc", b"x 123", b"x 12", b"123 ", b"aa",
    ];
    for lane in 0..4 {
        for end in ends {
            for len in [0usize, 3, 40, 90] {
                let mut payloads: Vec<Vec<u8>> = (0..4)
                    .map(|_| (0..60).map(|_| alpha[rng.below(alpha.len())]).collect())
                    .collect();
                let mut p: Vec<u8> = (0..len).map(|_| alpha[rng.below(alpha.len())]).collect();
                p.extend_from_slice(end);
                payloads[lane] = p;
                payloads.push(end.to_vec());
                let what = format!("{end:?} ending lane {lane} after {len} B");
                assert_batch_parity(&rs, &mut batch, &payloads, &what);
            }
        }
    }
}

/// A budget too small to fuse anything, and one that splits the rules:
/// the batch scan counts fallback rules per payload.
#[test]
fn batch_parity_under_forced_fallback() {
    let patterns = vec![
        ("http", r"(?i)(get|post) /[!-~]* http/1\.[01]"),
        ("ssh", r"(?i)ssh-[12]\.[0-9]"),
        ("sqli", r"(?i)' or 1=1"),
        ("tail", r"[0-9]{3}$"),
        ("head", r"^SSH"),
    ];
    let unfused = Ruleset::compile_with_budget(patterns.clone(), 1).unwrap();
    let split = Ruleset::compile_with_budget(patterns, 40).unwrap();
    assert_eq!(unfused.fused_rule_count(), 0, "budget 1 fuses nothing");
    assert!(split.fused_rule_count() > 0 && split.fused_rule_count() < split.len());
    let mut batch = BatchScan::default();
    let mut rng = Lcg(0xFA11);
    for n in [1usize, 4, 5, 64] {
        let mut payloads: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let len = rng.below(700);
                let mut p = payload_with_seeds(&mut rng, len, 1);
                if len > 40 {
                    p[..20].copy_from_slice(b"GET /idx http/1.1 qq");
                    p[len - 3..].copy_from_slice(b"123");
                }
                p
            })
            .collect();
        payloads.push(b"SSH-2.0 999".to_vec());
        for (rs, what) in [(&unfused, "unfused"), (&split, "split")] {
            assert_batch_parity(rs, &mut batch, &payloads, &format!("{what}, {n} payloads"));
        }
    }
}
