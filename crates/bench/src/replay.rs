//! Replay files: a strict, line-oriented text form of a whole [`Genome`],
//! so a shrunk repro lives in the tree and re-runs byte-identically.
//!
//! ```text
//! dash replay v3
//! seed 1
//! force_admission true
//! flow bulk 0 1 5000000 10 100000000 - 256 200000 1024 100000000 2000 det none true false 65536 100512000
//! fault 0 timer_jitter 9 200000
//! ```
//!
//! One line per plan entry (`flow`, `rpc`, `tcp`, `window`, `probe`) and
//! per fault event (`fault <at_ns> <FaultKind::name> …`), every field
//! positional in declaration order: times in nanoseconds, hosts by
//! number, `-` for no Poisson seed. `record!` names each struct's fields
//! once, for writing and reading, in a literal that fails to compile if
//! a field is missing. [`parse`] rejects an unknown or short line — a
//! replay that dropped part of its genome would "pass" without testing
//! anything — and [`parse`] ∘ [`to_text`] is the identity.

use std::fmt::Display;
use std::str::SplitWhitespace;

use dash_apps::traffic::{Class, Flow, Probe, RpcFlow, TcpFlow, TcpWork, WindowFlow};
use dash_net::ids::HostId;
use dash_sim::{FaultEvent, FaultKind, GilbertElliott, SimDuration, SimTime};
use dash_transport::{CapacityEnforcement, StreamProfile};
use rms_core::delay::{DelayBound, DelayBoundKind, StatisticalSpec};

use crate::explore::Genome;

/// Format version header; bump on any incompatible change.
const HEADER: &str = "dash replay v3";

type Words<'a> = SplitWhitespace<'a>;

/// A value as one or more space-separated words.
trait Field: Sized {
    fn put(&self, out: &mut String);
    fn take(w: &mut Words) -> Option<Self>;
}

fn word(out: &mut String, w: impl Display) {
    out.push_str(&format!(" {w}"));
}

/// One word: a number or flag as itself, a newtype as the number it
/// wraps.
macro_rules! scalar {
    ($($ty:ty),*) => {
        scalar! { $($ty = $ty, |v| *v, |v| v;)* }
    };
    ($($ty:ty = $raw:ty, |$v:ident| $to:expr, $from:expr;)*) => {$(
        impl Field for $ty {
            fn put(&self, out: &mut String) {
                let $v = self;
                word(out, $to);
            }
            fn take(w: &mut Words) -> Option<Self> {
                w.next()?.parse::<$raw>().ok().map($from)
            }
        }
    )*};
}
scalar!(u16, u32, u64, usize, f64, bool);
scalar! {
    SimDuration = u64, |d| d.as_nanos(), SimDuration::from_nanos;
    SimTime = u64, |t| t.as_nanos(), SimTime::from_nanos;
    HostId = u32, |h| h.0, HostId;
}

/// A struct: its fields in declaration order.
macro_rules! record {
    ($($ty:ident { $($f:ident),* })*) => {$(
        impl Field for $ty {
            fn put(&self, out: &mut String) {
                $(self.$f.put(out);)*
            }
            fn take(w: &mut Words) -> Option<Self> {
                Some($ty { $($f: Field::take(w)?),* })
            }
        }
    )*};
}
record! {
    Flow { class, src, dst, start, count, interval, poisson, len, profile, budget }
    StreamProfile {
        capacity, max_message, delay, enforcement, reliable, receiver_fc, send_port_limit
    }
    DelayBound { fixed, per_byte, kind }
    StatisticalSpec { average_load, burstiness, delay_probability }
    RpcFlow { client, server, service, calls, interval, start, request, reply }
    TcpFlow { client, server, work }
    WindowFlow { user, app, event_rate, event_bytes, graphics_bytes, budget, duration, seed }
    Probe { a, b, interval, end }
    FaultEvent { at, kind }
}

/// An enum: the variant's name, then its fields (a tuple variant's one
/// field named for the pattern).
macro_rules! variants {
    ($($ty:ident { $($v:ident $name:literal $({ $($f:ident),* })? $(($t:ident))?)* })*) => {$(
        impl Field for $ty {
            fn put(&self, out: &mut String) {
                match self {
                    $($ty::$v $({ $($f),* })? $(($t))? => {
                        word(out, $name);
                        $($($f.put(out);)*)?
                        $($t.put(out);)?
                    })*
                }
            }
            fn take(w: &mut Words) -> Option<Self> {
                Some(match w.next()? {
                    $($name => $ty::$v
                        $({ $($f: Field::take(w)?),* })?
                        $(({ let $t = Field::take(w)?; $t }))?,)*
                    _ => return None,
                })
            }
        }
    )*};
}
variants! {
    Class { Voice "voice" WanVoice "wan_voice" Bulk "bulk" Churn "churn" Heavy "heavy" }
    CapacityEnforcement { None "none" RateBased "rate" AckBased "ack" }
    DelayBoundKind { BestEffort "best" Deterministic "det" Statistical "stat" (spec) }
    TcpWork { Bulk "bulk" (len) Rpc "rpc" { calls, request, reply } }
    FaultKind {
        NetworkDown "network_down" { network }
        NetworkUp "network_up" { network }
        Partition "partition" { a, b }
        HealPartition "heal_partition" { a, b }
        BurstLossStart "burst_loss_start" { network, model }
        BurstLossEnd "burst_loss_end" { network }
        IfaceStall "iface_stall" { host, network, duration }
        HostCrash "host_crash" { host }
        HostRestart "host_restart" { host }
        TimerJitter "timer_jitter" { seed, max }
    }
}

/// A Poisson seed, `-` for none.
impl Field for Option<u64> {
    fn put(&self, out: &mut String) {
        word(out, self.map_or("-".into(), |v| v.to_string()));
    }
    fn take(w: &mut Words) -> Option<Self> {
        match w.next()? {
            "-" => Some(None),
            v => v.parse().ok().map(Some),
        }
    }
}

/// Its four probabilities; a planned channel starts in the good state.
impl Field for GilbertElliott {
    fn put(&self, out: &mut String) {
        let g = self;
        for p in [g.p_enter_bad, g.p_exit_bad, g.loss_good, g.loss_bad] {
            p.put(out);
        }
    }
    fn take(w: &mut Words) -> Option<Self> {
        let [a, b, c, d] = [(); 4].map(|()| f64::take(w));
        Some(GilbertElliott::new(a?, b?, c?, d?))
    }
}

/// The genome's lists in file order, each with the keyword of its lines:
/// [`to_text`] writes and [`parse`] reads one line per entry.
macro_rules! lists {
    ($($key:literal $($list:ident).+,)*) => {
        /// Serialize a genome to replay text.
        pub fn to_text(g: &Genome) -> String {
            let mut out = format!("{HEADER}\n");
            out += &format!("seed {}\nforce_admission {}\n", g.seed, g.force_admission);
            $(for e in &g.$($list).+ {
                out.push_str($key);
                e.put(&mut out);
                out.push('\n');
            })*
            out
        }

        /// Read one line, its keyword already taken, into `g`.
        fn read_line(g: &mut Genome, key: &str, mut w: Words) -> Option<()> {
            match key {
                "seed" => g.seed = Field::take(&mut w)?,
                "force_admission" => g.force_admission = Field::take(&mut w)?,
                $($key => g.$($list).+.push(Field::take(&mut w)?),)*
                _ => return None,
            }
            w.next().is_none().then_some(())
        }
    };
}
lists! {
    "flow" plan.flows,
    "rpc" plan.rpcs,
    "tcp" plan.tcp,
    "window" plan.windows,
    "probe" plan.probes,
    "fault" faults.events,
}

/// Parse replay text back into a genome.
///
/// # Errors
///
/// A human-readable description of the first malformed line.
pub fn parse(text: &str) -> Result<Genome, String> {
    let mut lines = text.lines().map(str::trim).enumerate();
    let header = lines.next().map_or("", |(_, h)| h);
    if header != HEADER {
        return Err(format!("missing header {HEADER:?}, got {header:?}"));
    }
    let mut g = Genome::default();
    for (no, line) in lines.filter(|(_, l)| !l.is_empty() && !l.starts_with('#')) {
        let mut w = line.split_whitespace();
        let key = w.next().unwrap_or_default();
        read_line(&mut g, key, w).ok_or(format!("replay line {}: malformed {line:?}", no + 1))?;
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::explore::{mutate, paced};
    use dash_sim::{FaultPlan, Rng};

    /// The stored admission repro: one forced deterministic 200 kB open.
    fn sample() -> Genome {
        let mut f = paced(5, 10, 100, 200_000);
        let (fixed, per_byte) = (SimDuration::from_millis(100), SimDuration::from_micros(2));
        f.profile.delay = DelayBound::deterministic(fixed, per_byte);
        f.budget = f.profile.delay.bound_for(256);
        let mut g = Genome::baseline(1);
        (g.force_admission, g.plan.flows) = (true, vec![f]);
        g
    }

    #[test]
    fn text_is_stable() {
        let mut g = sample();
        let max = SimDuration::from_micros(200);
        let jitter = FaultKind::TimerJitter { seed: 9, max };
        g.faults = FaultPlan::new().at(SimTime::ZERO, jitter);
        let expected = "dash replay v3\n\
                        seed 1\n\
                        force_admission true\n\
                        flow bulk 0 1 5000000 10 100000000 - 256 200000 1024 100000000 \
                        2000 det none true false 65536 100512000\n\
                        fault 0 timer_jitter 9 200000\n";
        assert_eq!(to_text(&g), expected);
        assert_eq!(parse(expected).unwrap(), g);
    }

    /// Every genome the mutator makes from fixed seeds reads back as
    /// itself, and between them they hold every plan list and every fault
    /// kind.
    #[test]
    fn every_mutated_genome_round_trips() {
        let (mut lists, mut kinds) = ([0; 5], BTreeSet::new());
        for seed in 0..4 {
            let (mut rng, mut g) = (Rng::new(seed), Genome::baseline(seed));
            for _ in 0..150 {
                g = mutate(&mut rng, &g);
                let text = to_text(&g);
                assert_eq!(parse(&text).as_ref(), Ok(&g), "{text}");
                // `variants!` spells each fault kind as `FaultKind::name`.
                let lines = text.lines().filter_map(|l| l.strip_prefix("fault "));
                let written = lines.map(|l| l.split(' ').nth(1).unwrap_or_default());
                let names = g.faults.events.iter().map(|e| e.kind.name());
                assert!(written.eq(names), "{text}");
                let p = &g.plan;
                let lens = [p.flows.len(), p.rpcs.len(), p.tcp.len(), p.windows.len()];
                for (n, len) in lists
                    .iter_mut()
                    .zip(lens.into_iter().chain([p.probes.len()]))
                {
                    *n += usize::from(len > 0);
                }
                kinds.extend(g.faults.events.iter().map(|e| e.kind.name()));
            }
        }
        assert!(lists.iter().all(|&n| n > 0), "plan lists seen: {lists:?}");
        assert_eq!(kinds.len(), 10, "fault kinds seen: {kinds:?}");
    }

    /// The fields the mutator never draws: a Poisson seed and a
    /// statistical delay bound.
    #[test]
    fn poisson_and_statistical_flows_round_trip() {
        let mut g = sample();
        let f = &mut g.plan.flows[0];
        f.poisson = Some(7);
        let spec = rms_core::delay::StatisticalSpec::new(12_500.5, 2.0, 0.99);
        f.profile.delay = DelayBound::statistical(f.profile.delay.fixed, SimDuration::ZERO, spec);
        assert_eq!(parse(&to_text(&g)), Ok(g));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored_but_junk_is_not() {
        let ok = "dash replay v3\n\n# a comment\nseed 4\n";
        assert_eq!(parse(ok).unwrap().seed, 4);
        let text = to_text(&sample());
        let flow = text.lines().nth(3).unwrap();
        for bad in [
            "dash replay v3\nbogus line\n".to_string(),
            "not a replay\n".to_string(),
            "dash-check replay v2\nseed 4\n".to_string(),
            "dash replay v3\nseed 4 5\n".to_string(),
            format!("dash replay v3\n{flow} 1\n"),
            format!("dash replay v3\n{}\n", flow.replace(" det ", " fancy ")),
            format!("dash replay v3\n{}\n", flow.rsplit_once(' ').unwrap().0),
            "dash replay v3\nfault 0 host_crash\n".to_string(),
        ] {
            assert!(parse(&bad).is_err(), "{bad:?}");
        }
    }
}
