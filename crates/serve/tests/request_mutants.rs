//! Seeded mutation test of the daemon's request reader,
//! `ServeLoop::handle_line`. Every `place`, `query`, `drift`, `observe`
//! and `fault` line of an interleaved request stream is mutated —
//! truncated, a key dropped or duplicated, a value of the wrong type,
//! non-finite, out of range, an NF kind not served, or 1 MiB long — and
//! each mutant is served in place of its line by a daemon that has
//! served every line before it. A mutant must get `{"ok":false,...}` naming the key it broke, or
//! the very reply its well-formed twin gets (and then it stands in for
//! the twin). It must never panic, never move a later reply, and never
//! grow the profile cache past what the well-formed stream grows it to.

use std::panic::{catch_unwind, AssertUnwindSafe};
use yala_core::{Engine, Observation};
use yala_fleet::FleetConfig;
use yala_nf::NfKind;
use yala_serve::{write_observation, ServeLoop};
use yala_sim::{CounterSample, NicSpec, ResourceKind};
use yala_telemetry::stable_hash64;
use yala_traffic::TrafficProfile;

/// The ops whose lines are mutated.
const MUTATED_OPS: [&str; 5] = ["place", "query", "drift", "observe", "fault"];

/// Values of the wrong kind for every field: not finite once read, below
/// every range, above every range (and past 2^53, so no integer).
const BAD_NUMBERS: [&str; 4] = ["1e400", "-1e400", "-1", "1e300"];

/// One line in 16 also gets a 1 MiB value.
const MIB_EVERY: usize = 16;

fn config() -> FleetConfig {
    let mut c = FleetConfig::mixed(29, 6);
    c.kinds = vec![NfKind::FlowStats, NfKind::Nat, NfKind::Nids];
    c
}

/// The request stream the daemon's reply digests are pinned on (the
/// `pinned_stream` test of `yala-serve`): on a mixed two-model portfolio
/// with a regex NF only one model runs, places, departs, drifts, queries,
/// faults, observations and absorbs, interleaved by a splitmix64 stream
/// of `seed`.
fn stream(seed: u64) -> Vec<String> {
    let mut x = seed;
    let mut rnd = move |n: u64| {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    };
    let mut observe = String::new();
    write_observation(
        &mut observe,
        &Observation {
            model: NicSpec::bluefield2().model(),
            kind: NfKind::Nat,
            traffic: TrafficProfile::new(12_345, 512, 733.25),
            competitors: CounterSample {
                ipc: 1.25,
                irt: 9.5e8,
                l2crd: 1.5e7,
                l2cwr: 2.5e6,
                memrd: 3.75e6,
                memwr: 1.125e6,
                wss: 6.5e7,
            },
            accel_pressure: vec![(ResourceKind::Regex, 0.375)],
            solo_tput: 1.0e7,
            measured_tput: 8.25e6,
        },
    );
    let mut lines: Vec<String> = Vec::new();
    for id in 0..260u64 {
        let kind = ["flowstats", "nat", "nids"][rnd(3) as usize];
        let qos = ["guaranteed", "best_effort"][rnd(2) as usize];
        let mtbr = if kind == "nids" { 600.0 } else { 0.0 };
        let traffic = |rnd: &mut dyn FnMut(u64) -> u64| {
            let flows = [300, 3_000, 20_000, 90_000][rnd(4) as usize];
            let psize = [64, 512, 1_500][rnd(3) as usize];
            format!("\"flows\":{flows},\"psize\":{psize},\"mtbr\":{mtbr}")
        };
        let sla = [0.02, 0.05, 0.1, 0.2][rnd(4) as usize];
        let at = traffic(&mut rnd);
        lines.push(format!(
            "{{\"op\":\"place\",\"id\":{id},\"kind\":\"{kind}\",\"qos\":\"{qos}\",{at},\
             \"sla_drop\":{sla}}}"
        ));
        let earlier = rnd(id + 1);
        match rnd(8) {
            0 | 1 => lines.push(format!("{{\"op\":\"depart\",\"id\":{earlier}}}")),
            2 => {
                let at = traffic(&mut rnd);
                lines.push(format!("{{\"op\":\"drift\",\"id\":{earlier},{at}}}"));
            }
            3 => lines.push(format!(
                "{{\"op\":\"query\",\"kind\":\"{kind}\",{at},\"sla_drop\":{sla}}}"
            )),
            4 => {
                let (kind, nic) = (["fail", "recover", "recover"][rnd(3) as usize], rnd(6));
                lines.push(format!(
                    "{{\"op\":\"fault\",\"nic\":{nic},\"kind\":\"{kind}\"}}"
                ));
            }
            5 => lines.push(observe.trim_end().to_string()),
            _ => {}
        }
        if id >= 14 {
            lines.push(format!("{{\"op\":\"depart\",\"id\":{}}}", id - 14));
        }
        if id % 85 == 84 {
            lines.push("{\"op\":\"absorb\"}".to_string());
        }
    }
    lines.push("{\"op\":\"stats\"}".to_string());
    lines
}

/// A mutant, and the key it breaks (`None` for a truncation, which
/// breaks the line).
struct Mutant {
    line: String,
    key: Option<String>,
}

/// Every mutant of the one-line request `line`, seeded by `seed`: four
/// truncations; per field, dropped (unless it is the optional `qos`),
/// given a value of the wrong type, each bad number, and duplicated in
/// front of itself with a bad number; a `kind` given an NF kind the
/// config does not list; on one line in [`MIB_EVERY`], a
/// 1 MiB value for a seeded field; and last, a seeded field duplicated
/// behind itself with its own value — the line's twin, as the reader
/// takes a key's first value.
fn mutants(line: &str, seed: u64) -> Vec<Mutant> {
    let body = &line[1..line.len() - 1];
    let fields: Vec<(&str, &str)> = body
        .split(',')
        .map(|f| f.split_once(':').expect("a request field is key:value"))
        .collect();
    let join = |fs: &[(&str, String)]| {
        let inner: Vec<String> = fs.iter().map(|(k, v)| format!("{k}:{v}")).collect();
        format!("{{{}}}", inner.join(","))
    };
    let owned: Vec<(&str, String)> = fields.iter().map(|&(k, v)| (k, v.to_string())).collect();
    let pick =
        |salt: &str, n: usize| stable_hash64(format!("{seed}/{salt}").as_bytes()) as usize % n;
    let mut out: Vec<Mutant> = (0..4)
        .map(|i| Mutant {
            line: line[..pick(&format!("cut{i}"), line.len())].to_string(),
            key: None,
        })
        .collect();
    for (i, (key, value)) in fields.iter().enumerate() {
        let name = key.trim_matches('"').to_string();
        let mut push = |fs: Vec<(&str, String)>| {
            out.push(Mutant {
                line: join(&fs),
                key: Some(name.clone()),
            })
        };
        if name != "qos" {
            let mut fs = owned.clone();
            fs.remove(i);
            push(fs);
        }
        if name == "kind" {
            // A valid NF kind the config does not list: no model is
            // trained for it.
            let mut fs = owned.clone();
            fs[i].1 = format!("\"{}\"", NfKind::Acl.name());
            push(fs);
        }
        let wrong = if value.starts_with('"') { "7" } else { "\"7\"" };
        for bad in BAD_NUMBERS.iter().chain([&wrong]) {
            let mut fs = owned.clone();
            fs[i].1 = bad.to_string();
            push(fs.clone());
            fs[i].1 = value.to_string();
            fs.insert(i, (key, bad.to_string()));
            push(fs);
        }
    }
    if pick("mib?", MIB_EVERY) == 0 {
        let i = pick("mib", fields.len());
        let mut fs = owned.clone();
        fs[i].1 = format!("\"{}\"", "x".repeat(1 << 20));
        out.push(Mutant {
            line: join(&fs),
            key: Some(fields[i].0.trim_matches('"').to_string()),
        });
    }
    let i = pick("twin", fields.len());
    let mut fs = owned.clone();
    fs.insert(i + 1, fs[i].clone());
    out.push(Mutant {
        line: join(&fs),
        key: Some(fields[i].0.trim_matches('"').to_string()),
    });
    out
}

/// What `daemon` replies to `line`, or `None` if it panicked.
fn serve(daemon: &mut ServeLoop, line: &str, engine: &Engine) -> Option<String> {
    catch_unwind(AssertUnwindSafe(|| daemon.handle_line(line, engine))).ok()
}

#[test]
fn every_request_mutant_is_refused_by_key_or_answered_as_its_twin() {
    let engine = Engine::sequential();
    let cfg = config();
    let lines = stream(29);
    for op in MUTATED_OPS {
        let tag = format!("{{\"op\":\"{op}\"");
        assert!(lines.iter().any(|l| l.starts_with(&tag)), "no {op} line");
    }

    // The well-formed run: every reply, and the profile cache after each.
    let mut daemon = ServeLoop::new(&cfg, "yala-online", &engine).expect("build");
    let (mut want, mut cached) = (Vec::new(), Vec::new());
    for line in &lines {
        want.push(daemon.handle_line(line, &engine));
        cached.push(daemon.cached_profiles());
    }
    let accepted = want
        .iter()
        .filter(|r| r.starts_with("{\"ok\":true"))
        .count();
    assert!(
        accepted * 3 > want.len() * 2,
        "{accepted} of {} accepted",
        want.len()
    );

    let mut daemon = ServeLoop::new(&cfg, "yala-online", &engine).expect("build");
    let (mut refused, mut twins) = (0usize, 0usize);
    for (at, line) in lines.iter().enumerate() {
        let mutated = MUTATED_OPS
            .iter()
            .any(|op| line.starts_with(&format!("{{\"op\":\"{op}\"")));
        let mut answered = None;
        let all = if mutated {
            mutants(line, at as u64)
        } else {
            Vec::new()
        };
        for m in all {
            let shown: String = m.line.chars().take(160).collect();
            let reply = serve(&mut daemon, &m.line, &engine)
                .unwrap_or_else(|| panic!("line {at}: mutant panicked: {shown}"));
            assert!(
                daemon.cached_profiles() <= cached[at],
                "line {at}: mutant grew the profile cache: {shown}"
            );
            let ok = reply.starts_with("{\"ok\":true");
            if reply == want[at] && ok {
                // The mutant stood in for its twin.
                answered = Some(reply);
                twins += 1;
                break;
            }
            // A twin the daemon refuses may be refused again for its
            // own reason.
            if !ok && reply != want[at] {
                if let Some(key) = &m.key {
                    let head: String = reply.chars().take(200).collect();
                    assert!(
                        reply.contains(key.as_str()),
                        "line {at}: refusal does not name {key}: {head} for {shown}"
                    );
                }
            }
            assert!(!ok, "line {at}: mutant answered {reply}: {shown}");
            refused += 1;
        }
        let reply = match answered {
            Some(reply) => reply,
            None => serve(&mut daemon, line, &engine)
                .unwrap_or_else(|| panic!("line {at}: the well-formed line panicked")),
        };
        assert_eq!(reply, want[at], "line {at}: a mutant moved this reply");
        assert!(daemon.cached_profiles() <= cached[at]);
    }
    assert!(refused > 30_000, "{refused} mutants refused");
    assert!(twins > 300, "{twins} mutants answered as their twin");
    assert_eq!(daemon.cached_profiles(), cached[lines.len() - 1]);
}
