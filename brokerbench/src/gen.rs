//! The seeded generator: the scenario the broker is loaded with and the
//! open-loop request schedule driven against it.
//!
//! Everything here is a pure function of the workload seed, so the same
//! seed gives byte-identical scenario text and the same schedule. The
//! broker only ever sees the generated texts, over the wire.
//!
//! Scenario shape: `kinds` request interfaces `q0..`, `policies` usage
//! automata `p0..` ("never `aJ` followed by `bJ`"), framed clients that
//! open 2–3 sessions each, and services spread evenly over the
//! interfaces. Per interface the first `admissible` services are
//! compliant and policy-clean, the next `violating` fire `aJ; bJ` for
//! every policy inside the session (compliant but policy-violating), and
//! the rest offer a reply the client cannot take (non-compliant,
//! Theorem 1 fails, cut at the product's edges). So a client with
//! `n` requests has exactly `admissible^n` valid plans out of
//! `services^n` candidates.
//!
//! Writes toggle a fixed set of admissible locations through a 3-cycle:
//! admissible → non-compliant (`publish`) → absent (`retract`) →
//! admissible (`publish`). Each connection owns a disjoint half of the
//! toggled locations, so the repository state is a function of how
//! many writes of each connection have been applied.

use sufs_broker::{proto, Json};
use sufs_rng::{Rng, SeedableRng, StdRng};

/// Connections the load is spread over.
pub const CONNS: usize = 2;

/// The size of a generated scenario.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Published services.
    pub services: usize,
    /// Distinct request interfaces.
    pub kinds: usize,
    /// Admissible services per interface.
    pub admissible: usize,
    /// Policy-violating services per interface; the rest of each
    /// interface's services are non-compliant.
    pub violating: usize,
    /// Registered clients.
    pub clients: usize,
    /// Policies in the registry.
    pub policies: usize,
    /// Admissible locations the writes toggle (split over connections).
    pub toggled: usize,
}

/// One generated client.
#[derive(Debug, Clone)]
pub struct Client {
    /// Scenario name (`c00`, ...).
    pub name: String,
    /// Its history expression, as sent in `plan` requests.
    pub text: String,
    /// Sessions it opens.
    pub requests: usize,
}

/// A generated scenario plus what the writes may do to it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The full `.sufs` text published with `publish_scenario`.
    pub text: String,
    /// The clients, in name order.
    pub clients: Vec<Client>,
    /// Toggled locations per connection: `(location, admissible body,
    /// non-compliant body)`.
    pub toggles: [Vec<(String, String, String)>; CONNS],
}

fn admissible_body(s: usize, k: usize) -> String {
    format!("ext[q{k} -> eps]; #tick({s}); int[ok{k} -> eps | no{k} -> eps]")
}

fn noncompliant_body(s: usize, k: usize) -> String {
    format!("ext[q{k} -> eps]; #tick({s}); int[ok{k} -> eps | no{k} -> eps | del{k} -> eps]")
}

fn violating_body(k: usize, policies: usize) -> String {
    let events: String = (0..policies).map(|j| format!("#a{j}; #b{j}; ")).collect();
    format!("ext[q{k} -> eps]; {events}int[ok{k} -> eps | no{k} -> eps]")
}

/// Generates the scenario for `shape` from `seed`.
pub fn scenario(shape: Shape, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CE4_A810);
    let mut text = String::new();
    for j in 0..shape.policies {
        text.push_str(&format!(
            "policy p{j} {{\n  start q0;\n  offending bad;\n  q0 -- a{j} -> q1;\n  q1 -- b{j} -> bad;\n}}\n\n"
        ));
    }
    // Stratified, so that every seed gives the same workload up to
    // relabelling: half the clients open two sessions and half three,
    // and sessions cycle through the interfaces and policies. The seed
    // permutes which interface and policy each label stands for.
    let mut kinds: Vec<usize> = (0..shape.kinds).collect();
    let mut policies: Vec<usize> = (0..shape.policies).collect();
    rng.shuffle(&mut kinds);
    rng.shuffle(&mut policies);
    let clients: Vec<Client> = (0..shape.clients)
        .map(|i| {
            let (a, requests) = (i / 2, 2 + i % 2);
            let sessions: Vec<String> = (1..=requests)
                .map(|r| {
                    let k = kinds[(a + r) % shape.kinds];
                    let j = policies[(a / shape.kinds + r + i % 2) % shape.policies];
                    format!("open {r} phi p{j} {{ int[q{k} -> eps]; ext[ok{k} -> eps | no{k} -> eps] }}")
                })
                .collect();
            Client {
                name: format!("c{i:02}"),
                text: sessions.join("; "),
                requests,
            }
        })
        .collect();
    for c in &clients {
        text.push_str(&format!("client {} {{\n  {}\n}}\n\n", c.name, c.text));
    }
    let mut admissible = Vec::new();
    for s in 0..shape.services {
        let k = s % shape.kinds;
        let rank = s / shape.kinds;
        let body = if rank < shape.admissible {
            admissible.push(s);
            admissible_body(s, k)
        } else if rank < shape.admissible + shape.violating {
            violating_body(k, shape.policies)
        } else {
            noncompliant_body(s, k)
        };
        text.push_str(&format!("service s{s:03} {{\n  {body}\n}}\n\n"));
    }
    rng.shuffle(&mut admissible);
    let mut toggles: [Vec<(String, String, String)>; CONNS] = Default::default();
    for (i, &s) in admissible.iter().take(shape.toggled).enumerate() {
        let k = s % shape.kinds;
        toggles[i % CONNS].push((
            format!("s{s:03}"),
            admissible_body(s, k),
            noncompliant_body(s, k),
        ));
    }
    Scenario {
        text,
        clients,
        toggles,
    }
}

/// What a scheduled request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `plan` for a client (index into [`Scenario::clients`]).
    Plan(usize),
    /// The `n`-th write of its connection (0-based, counted over the
    /// whole run).
    Write(usize),
}

/// The state of a toggled location; writes move it one step along the
/// cycle `Admissible → NonCompliant → Absent → Admissible`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Toggle {
    /// The original, admissible body is published.
    Admissible,
    /// The non-compliant body is published.
    NonCompliant,
    /// The location is retracted.
    Absent,
}

impl Toggle {
    fn next(self) -> Toggle {
        match self {
            Toggle::Admissible => Toggle::NonCompliant,
            Toggle::NonCompliant => Toggle::Absent,
            Toggle::Absent => Toggle::Admissible,
        }
    }
}

/// One write: which toggled location (index into its connection's
/// toggle list) and the state it moves that location to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Write {
    /// Index into `Scenario::toggles[conn]`.
    pub slot: usize,
    /// The location's state once the write applies.
    pub to: Toggle,
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Op {
    /// Due time, nanoseconds from the start of its phase.
    pub at_ns: u64,
    /// The connection it is sent on.
    pub conn: usize,
    /// What it asks for.
    pub kind: Kind,
    /// The encoded request frame.
    pub frame: Vec<u8>,
}

/// The `plan` request every schedule sends: production-shaped.
pub fn plan_request(client: &str) -> Json {
    Json::obj()
        .with("cmd", "plan")
        .with("client", client)
        .with("engine", "compositional")
        .with("max_valid", 1u64)
}

/// A uniform draw from `[0, 1)`.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Builds schedules phase after phase; the toggle states and per
/// connection write counters carry over from one phase to the next.
pub struct Generator {
    rng: StdRng,
    seed: u64,
    plan_frames: Vec<Vec<u8>>,
    toggles: [Vec<(String, String, String)>; CONNS],
    states: [Vec<Toggle>; CONNS],
    /// Every write generated so far, per connection, in send order.
    pub writes: [Vec<Write>; CONNS],
}

impl Generator {
    /// A generator over `scenario`'s clients and toggled locations.
    pub fn new(scenario: &Scenario, seed: u64) -> Generator {
        assert!(
            scenario.toggles.iter().all(|t| !t.is_empty()),
            "every connection needs a toggled location"
        );
        Generator {
            rng: StdRng::seed_from_u64(seed ^ 0x0BE7_10AD),
            seed,
            plan_frames: scenario
                .clients
                .iter()
                .map(|c| {
                    proto::encode_frame(&plan_request(&c.text)).expect("request frames are small")
                })
                .collect(),
            toggles: scenario.toggles.clone(),
            states: std::array::from_fn(|c| vec![Toggle::Admissible; scenario.toggles[c].len()]),
            writes: Default::default(),
        }
    }

    /// The request frame of a write.
    fn write_frame(&self, conn: usize, n: usize, w: Write) -> Vec<u8> {
        let (loc, good, bad) = &self.toggles[conn][w.slot];
        let req_id = format!("bench-{}-{conn}-{n}", self.seed);
        let request = match w.to {
            Toggle::Absent => Json::obj()
                .with("cmd", "retract")
                .with("location", loc.as_str()),
            Toggle::Admissible | Toggle::NonCompliant => {
                let body = if w.to == Toggle::Admissible {
                    good
                } else {
                    bad
                };
                Json::obj()
                    .with("cmd", "publish")
                    .with("location", loc.as_str())
                    .with("service", body.as_str())
            }
        };
        proto::encode_frame(&request.with("req_id", req_id)).expect("request frames are small")
    }

    /// A Poisson arrival schedule at `rate` requests per second for
    /// `secs` seconds, each request a write with probability
    /// `write_share` and a `plan` otherwise, on a uniformly chosen
    /// connection.
    pub fn phase(&mut self, rate: f64, secs: f64, write_share: f64) -> Vec<Op> {
        let end_ns = secs * 1e9;
        let mut t = 0.0f64;
        let mut ops = Vec::new();
        loop {
            // Exponential inter-arrival: -ln(1 - U) / rate.
            t += -(1.0 - unit(&mut self.rng)).ln() / rate * 1e9;
            if t >= end_ns {
                break;
            }
            let conn = self.rng.gen_range(0..CONNS);
            let (kind, frame) = if unit(&mut self.rng) < write_share {
                let slot = self.rng.gen_range(0..self.toggles[conn].len());
                let to = self.states[conn][slot].next();
                self.states[conn][slot] = to;
                let w = Write { slot, to };
                self.writes[conn].push(w);
                let n = self.writes[conn].len() - 1;
                (Kind::Write(n), self.write_frame(conn, n, w))
            } else {
                let c = self.rng.gen_range(0..self.plan_frames.len());
                (Kind::Plan(c), self.plan_frames[c].clone())
            };
            ops.push(Op {
                at_ns: t as u64,
                conn,
                kind,
                frame,
            });
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        services: 32,
        kinds: 4,
        admissible: 3,
        violating: 2,
        clients: 16,
        policies: 4,
        toggled: 8,
    };
    const MIX: f64 = 0.15;

    #[test]
    fn same_seed_same_scenario_and_schedule() {
        let a = scenario(SHAPE, 7);
        let b = scenario(SHAPE, 7);
        assert_eq!(a.text, b.text);
        let (mut ga, mut gb) = (Generator::new(&a, 7), Generator::new(&b, 7));
        for _ in 0..2 {
            let (pa, pb) = (ga.phase(500.0, 1.0, MIX), gb.phase(500.0, 1.0, MIX));
            assert_eq!(pa.len(), pb.len());
            for (x, y) in pa.iter().zip(&pb) {
                assert_eq!((x.at_ns, x.conn, x.kind), (y.at_ns, y.conn, y.kind));
                assert_eq!(x.frame, y.frame);
            }
        }
        assert_eq!(ga.writes, gb.writes);
    }

    #[test]
    fn clients_are_distinct_and_stratified() {
        for seed in 0..20 {
            let sc = scenario(SHAPE, seed);
            let mut texts: Vec<&str> = sc.clients.iter().map(|c| c.text.as_str()).collect();
            texts.sort_unstable();
            texts.dedup();
            assert_eq!(texts.len(), SHAPE.clients, "seed {seed}");
            let three = sc.clients.iter().filter(|c| c.requests == 3).count();
            assert_eq!(three, SHAPE.clients / 2);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Generator::new(&scenario(SHAPE, 1), 1).phase(500.0, 1.0, MIX);
        let b = Generator::new(&scenario(SHAPE, 2), 2).phase(500.0, 1.0, MIX);
        let times = |ops: &[Op]| ops.iter().map(|o| o.at_ns).collect::<Vec<_>>();
        assert_ne!(times(&a), times(&b));
    }

    #[test]
    fn schedule_follows_rate_and_mix() {
        let sc = scenario(SHAPE, 3);
        let ops = Generator::new(&sc, 3).phase(2000.0, 5.0, MIX);
        let n = ops.len() as f64;
        assert!((n - 10_000.0).abs() < 400.0, "{n} arrivals");
        assert!(ops.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        let writes = ops
            .iter()
            .filter(|o| matches!(o.kind, Kind::Write(_)))
            .count() as f64;
        assert!(
            (writes / n - 0.15).abs() < 0.02,
            "write share {}",
            writes / n
        );
    }

    #[test]
    fn writes_cycle_each_location() {
        let sc = scenario(SHAPE, 4);
        let mut g = Generator::new(&sc, 4);
        g.phase(1000.0, 2.0, MIX);
        for conn in 0..CONNS {
            let mut state = vec![Toggle::Admissible; sc.toggles[conn].len()];
            for w in &g.writes[conn] {
                assert_eq!(w.to, state[w.slot].next());
                state[w.slot] = w.to;
            }
        }
        let locs: Vec<&String> = sc.toggles.iter().flatten().map(|t| &t.0).collect();
        let mut unique = locs.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(
            unique.len(),
            locs.len(),
            "connections own disjoint locations"
        );
    }
}
