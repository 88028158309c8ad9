//! The correctness checker: every reply of a run against in-process
//! synthesis over the repository states the request may have seen.
//!
//! The broker serves each connection in order and each connection owns
//! its own toggled locations, so the repository a request observed is
//! fixed by how many writes of each connection had been applied. For a
//! request on connection `c` that count is exact on `c` (everything sent
//! before it on `c`) and a range on the other connection: at least the
//! writes acknowledged before the request was sent, at most those sent
//! before its reply arrived. A `plan` reply passes when, for some state
//! in that range, its plan is in the in-process valid set and its
//! `valid_total` equals that set's size.

use std::collections::{BTreeSet, HashMap};

use sufs_broker::Json;
use sufs_core::{Engine, ProductStore, SynthesisOptions};
use sufs_hexpr::{parse_hist, Hist, Location};
use sufs_net::Repository;
use sufs_policy::PolicyRegistry;

use crate::gen::{Kind, Toggle, Write, CONNS};

/// One request as driven, with its decoded reply.
#[derive(Debug, Clone)]
pub struct Record {
    /// The connection it went out on.
    pub conn: usize,
    /// What it asked for.
    pub kind: Kind,
    /// When it was written, ns since the run epoch.
    pub sent_ns: u64,
    /// When its reply arrived; `None` if it never did.
    pub recv_ns: Option<u64>,
    /// The decoded reply; `None` if missing or not JSON.
    pub reply: Option<Json>,
}

impl Record {
    /// Whether the request failed: no reply, an undecodable one, or a
    /// reply with `"ok": false`.
    pub fn failed(&self) -> bool {
        self.reply.as_ref().and_then(|r| r.bool_field("ok")) != Some(true)
    }
}

/// What a check found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Requests that failed, were refused or timed out.
    pub failed: usize,
    /// Replies that disagree with in-process synthesis (first few).
    pub mismatches: Vec<String>,
    /// How many mismatches there were in all.
    pub mismatch_count: usize,
}

impl Verdict {
    /// Notes a mismatch, keeping the first few messages.
    pub fn mismatch(&mut self, msg: String) {
        self.mismatch_count += 1;
        if self.mismatches.len() < 5 {
            self.mismatches.push(msg);
        }
    }
}

/// A toggled location: its name and its two bodies.
struct Slot {
    location: Location,
    admissible: Hist,
    noncompliant: Hist,
}

/// In-process model of every repository state a run can reach.
pub struct Model {
    base: Repository,
    registry: PolicyRegistry,
    clients: Vec<Hist>,
    slots: [Vec<Slot>; CONNS],
    /// `prefix[c][k]`: toggle states of connection `c`'s slots after its
    /// first `k` writes.
    prefix: [Vec<Vec<Toggle>>; CONNS],
    writes: [Vec<Write>; CONNS],
    products: ProductStore,
    memo: HashMap<([usize; CONNS], usize), (BTreeSet<String>, usize)>,
}

impl Model {
    /// A model over the scenario's base repository and registry, its
    /// client histories, the toggled locations and the generated writes.
    pub fn new(
        base: Repository,
        registry: PolicyRegistry,
        clients: Vec<Hist>,
        toggles: &[Vec<(String, String, String)>; CONNS],
        writes: &[Vec<Write>; CONNS],
    ) -> Model {
        let slots = std::array::from_fn(|c| {
            toggles[c]
                .iter()
                .map(|(loc, good, bad)| Slot {
                    location: Location::new(loc.as_str()),
                    admissible: parse_hist(good).expect("generated bodies parse"),
                    noncompliant: parse_hist(bad).expect("generated bodies parse"),
                })
                .collect()
        });
        let prefix = std::array::from_fn(|c| {
            let mut states = vec![vec![Toggle::Admissible; toggles[c].len()]];
            for w in &writes[c] {
                let mut next = states.last().expect("starts non-empty").clone();
                next[w.slot] = w.to;
                states.push(next);
            }
            states
        });
        Model {
            base,
            registry,
            clients,
            slots,
            prefix,
            writes: writes.clone(),
            products: ProductStore::new(),
            memo: HashMap::new(),
        }
    }

    /// The policy registry every state shares.
    pub fn registry(&self) -> &PolicyRegistry {
        &self.registry
    }

    /// The repository after the first `applied[c]` writes of each
    /// connection.
    pub fn repo_at(&self, applied: [usize; CONNS]) -> Repository {
        let mut repo = self.base.clone();
        for ((slots, prefix), &k) in self.slots.iter().zip(&self.prefix).zip(&applied) {
            for (slot, state) in slots.iter().zip(&prefix[k]) {
                let loc = slot.location.clone();
                match state {
                    Toggle::Admissible => {
                        repo.publish(loc, slot.admissible.clone());
                    }
                    Toggle::NonCompliant => {
                        repo.publish(loc, slot.noncompliant.clone());
                    }
                    Toggle::Absent => {
                        repo.retract(&loc);
                    }
                }
            }
        }
        repo
    }

    /// The valid plans (display form) of `client` and their count in
    /// the given state, from in-process compositional synthesis.
    fn valid_at(&mut self, applied: [usize; CONNS], client: usize) -> &(BTreeSet<String>, usize) {
        if !self.memo.contains_key(&(applied, client)) {
            let repo = self.repo_at(applied);
            let opts = SynthesisOptions {
                engine: Engine::Compositional,
                ..SynthesisOptions::default()
            };
            let synthesis = self
                .products
                .synthesize(&self.clients[client], &repo, &self.registry, &opts, None)
                .expect("generated scenarios synthesize");
            let valid: BTreeSet<String> = synthesis
                .report
                .valid_plans()
                .map(|p| p.to_string())
                .collect();
            let total = valid.len();
            self.memo.insert((applied, client), (valid, total));
        }
        &self.memo[&(applied, client)]
    }

    /// Checks every record of a run (all phases, in schedule order).
    /// `quorum` demands `"quorum": true` on every write reply.
    pub fn check(&mut self, records: &[Record], quorum: bool) -> Verdict {
        let mut verdict = Verdict::default();
        // Per connection, the send and reply times of its writes in
        // order; replies on one connection arrive in order, so both
        // lists are sorted.
        let mut wsent: [Vec<u64>; CONNS] = Default::default();
        let mut wrecv: [Vec<u64>; CONNS] = Default::default();
        for r in records {
            if let Kind::Write(_) = r.kind {
                wsent[r.conn].push(r.sent_ns);
                wrecv[r.conn].push(r.recv_ns.unwrap_or(u64::MAX));
            }
        }
        let mut seen = [0usize; CONNS];
        let mut state_known = true;
        for r in records {
            if r.failed() {
                verdict.failed += 1;
                if let (Kind::Write(_), true) = (r.kind, state_known) {
                    verdict.mismatch(format!(
                        "write on connection {} failed, so later states are unknown",
                        r.conn
                    ));
                    state_known = false;
                }
                continue;
            }
            if !state_known {
                continue;
            }
            let reply = r.reply.as_ref().expect("not failed");
            match r.kind {
                Kind::Write(n) => {
                    debug_assert_eq!(n, seen[r.conn]);
                    seen[r.conn] += 1;
                    self.check_write(r.conn, n, reply, quorum, &mut verdict);
                }
                Kind::Plan(client) => {
                    let own = seen[r.conn];
                    let other = 1 - r.conn;
                    let lo = wrecv[other].partition_point(|&t| t < r.sent_ns);
                    let hi = wsent[other].partition_point(|&t| t < r.recv_ns.unwrap_or(u64::MAX));
                    let ok = (lo..=hi.max(lo)).any(|k| {
                        let mut applied = [0; CONNS];
                        applied[r.conn] = own;
                        applied[other] = k;
                        plan_matches(reply, self.valid_at(applied, client))
                    });
                    if !ok {
                        verdict.mismatch(format!(
                            "plan for client {client} on connection {} (own writes {own}, other {lo}..={hi}): {reply}",
                            r.conn
                        ));
                    }
                }
            }
        }
        verdict
    }

    /// The `event` a write's reply must carry.
    fn write_event(&self, conn: usize, n: usize) -> String {
        let w = self.writes[conn][n];
        let loc = &self.slots[conn][w.slot].location;
        match w.to {
            Toggle::NonCompliant => format!("updated {loc}"),
            Toggle::Admissible => format!("published {loc}"),
            Toggle::Absent => format!("retracted {loc}"),
        }
    }

    fn check_write(
        &self,
        conn: usize,
        n: usize,
        reply: &Json,
        quorum: bool,
        verdict: &mut Verdict,
    ) {
        let want = self.write_event(conn, n);
        if reply.str_field("event") != Some(want.as_str()) {
            verdict.mismatch(format!(
                "write {n} on connection {conn}: want `{want}`, got {reply}"
            ));
        }
        if quorum && reply.bool_field("quorum") != Some(true) {
            verdict.mismatch(format!(
                "write {n} on connection {conn} not quorum-acked: {reply}"
            ));
        }
    }
}

/// Whether a `max_valid: 1` reply agrees with a state's valid set.
fn plan_matches(reply: &Json, (valid, total): &(BTreeSet<String>, usize)) -> bool {
    let plans = reply.get("valid").and_then(Json::as_arr).unwrap_or(&[]);
    reply.u64_field("valid_total") == Some(*total as u64)
        && plans.len() == (*total).min(1)
        && plans
            .iter()
            .all(|p| p.as_str().is_some_and(|s| valid.contains(s)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{scenario, Generator, Shape};
    use sufs_core::scenario::parse_scenario;

    const SHAPE: Shape = Shape {
        services: 16,
        kinds: 4,
        admissible: 2,
        violating: 2,
        clients: 4,
        policies: 2,
        toggled: 8,
    };

    fn model(seed: u64) -> (Model, Vec<crate::gen::Op>) {
        let sc = scenario(SHAPE, seed);
        let parsed = parse_scenario(&sc.text).expect("generated scenario parses");
        let mut g = Generator::new(&sc, seed);
        let ops = g.phase(400.0, 0.2, 0.4);
        let clients = sc
            .clients
            .iter()
            .map(|c| parse_hist(&c.text).expect("client parses"))
            .collect();
        let m = Model::new(
            parsed.repository,
            parsed.registry,
            clients,
            &sc.toggles,
            &g.writes,
        );
        (m, ops)
    }

    /// Replies a broker serving the ops strictly one at a time, in
    /// schedule order, would give.
    fn serial_replies(m: &mut Model, ops: &[crate::gen::Op]) -> Vec<Record> {
        let mut applied = [0usize; CONNS];
        let mut out = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let t = 1000 * i as u64;
            let reply = match op.kind {
                Kind::Write(n) => {
                    applied[op.conn] += 1;
                    Json::obj()
                        .with("ok", true)
                        .with("event", m.write_event(op.conn, n))
                }
                Kind::Plan(c) => {
                    let (valid, total) = m.valid_at(applied, c).clone();
                    let first: Vec<Json> =
                        valid.iter().take(1).map(|p| Json::str(p.clone())).collect();
                    Json::obj()
                        .with("ok", true)
                        .with("valid", first)
                        .with("valid_total", total as u64)
                }
            };
            out.push(Record {
                conn: op.conn,
                kind: op.kind,
                sent_ns: t,
                recv_ns: Some(t + 500),
                reply: Some(reply),
            });
        }
        out
    }

    #[test]
    fn serial_run_passes() {
        let (mut m, ops) = model(11);
        let records = serial_replies(&mut m, &ops);
        assert!(records.iter().any(|r| matches!(r.kind, Kind::Write(_))));
        let v = m.check(&records, false);
        assert_eq!(v.failed, 0);
        assert!(v.mismatches.is_empty(), "{:?}", v.mismatches);
    }

    #[test]
    fn wrong_total_and_foreign_plan_are_caught() {
        let (mut m, ops) = model(12);
        let mut records = serial_replies(&mut m, &ops);
        let i = records
            .iter()
            .position(|r| matches!(r.kind, Kind::Plan(_)))
            .unwrap();
        let reply = records[i].reply.as_mut().unwrap();
        let total = reply.u64_field("valid_total").unwrap();
        reply.set("valid_total", total + 1);
        assert_eq!(m.check(&records, false).mismatch_count, 1);
        let mut records = serial_replies(&mut m, &ops);
        records[i]
            .reply
            .as_mut()
            .unwrap()
            .set("valid", vec![Json::str("{r1↦nowhere}")]);
        assert_eq!(m.check(&records, false).mismatch_count, 1);
    }

    #[test]
    fn reply_from_a_state_the_history_forbids_is_caught() {
        // A plan answered as if a write sent *after* its reply arrived
        // had already applied.
        let (mut m, _) = model(13);
        let client = (0..4)
            .find(|&c| m.valid_at([0, 0], c).clone() != m.valid_at([1, 0], c).clone())
            .expect("some client sees the first write");
        let (valid, total) = m.valid_at([1, 0], client).clone();
        let plan = Json::obj()
            .with("ok", true)
            .with(
                "valid",
                valid
                    .iter()
                    .take(1)
                    .map(|p| Json::str(p.clone()))
                    .collect::<Vec<_>>(),
            )
            .with("valid_total", total as u64);
        let records = vec![
            Record {
                conn: 1,
                kind: Kind::Plan(client),
                sent_ns: 0,
                recv_ns: Some(10),
                reply: Some(plan),
            },
            Record {
                conn: 0,
                kind: Kind::Write(0),
                sent_ns: 20,
                recv_ns: Some(30),
                reply: None,
            },
        ];
        let v = m.check(&records, false);
        assert_eq!(v.mismatch_count, 2, "{:?}", v.mismatches);
        assert_eq!(v.failed, 1);
    }

    #[test]
    fn unacked_quorum_write_is_caught() {
        let (mut m, ops) = model(14);
        let records = serial_replies(&mut m, &ops);
        let v = m.check(&records, true);
        let writes = records
            .iter()
            .filter(|r| matches!(r.kind, Kind::Write(_)))
            .count();
        assert_eq!(v.mismatch_count, writes);
    }
}
