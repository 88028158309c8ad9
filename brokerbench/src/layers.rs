//! The traced run's layer replay: the run's own requests, re-executed
//! in process through the public functions of each layer the broker's
//! request path calls, with a span around every call.
//!
//! The broker's internals are not instrumented; instead this replays
//! the server side of each recorded request on a mirror of its state —
//! frame decode (`json`), history parsing (`hexpr`), product read-off or
//! patch (`core::product`), repository apply and cache invalidation
//! (`net`, `core::cache`), journal append with fsync (`broker::wal`)
//! and reply encode (`broker::proto`) — in the order the requests were
//! sent. Separately it times the core layers a
//! product build is made of (projection, Theorem-1 compliance, validity
//! model checking) over the workload's own services and clients, and
//! the snapshot layer on the run's final state.

use std::path::Path;
use std::time::Instant;

use sufs_broker::wal::Wal;
use sufs_broker::{json, proto, snapshot, synth_stats_json, Json};
use sufs_contract::{compliance::compliant, Contract};
use sufs_core::verify::DEFAULT_STATE_BOUND;
use sufs_core::{Engine, ProductStore, SynthesisOptions, VerifyCache};
use sufs_hexpr::projection::project;
use sufs_hexpr::requests::requests;
use sufs_hexpr::{parse_hist, Hist, Location};
use sufs_net::symbolic::{symbolic_successors, SymState};
use sufs_net::Repository;
use sufs_policy::validity::check_validity;
use sufs_policy::PolicyRegistry;

use crate::gen::Kind;
use crate::trace::Tracer;

/// The state the replay mutates, mirroring one broker.
pub struct Mirror {
    repo: Repository,
    registry: PolicyRegistry,
    cache: VerifyCache,
    products: ProductStore,
    /// The journal, when the mirrored broker is durable.
    wal: Option<Wal>,
}

fn compositional() -> SynthesisOptions {
    SynthesisOptions {
        engine: Engine::Compositional,
        ..SynthesisOptions::default()
    }
}

impl Mirror {
    /// A mirror of a broker that was just loaded with this state and
    /// has read every client's product once (as set-up does). With
    /// `wal_dir`, writes are journaled there like a durable broker's.
    ///
    /// # Errors
    ///
    /// Opening the journal.
    pub fn new(
        repo: Repository,
        registry: PolicyRegistry,
        clients: &[(String, Hist)],
        wal_dir: Option<&Path>,
    ) -> std::io::Result<Mirror> {
        let wal = match wal_dir {
            None => None,
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                Some(Wal::open(&dir.join(snapshot::JOURNAL_FILE))?.0)
            }
        };
        let mirror = Mirror {
            repo,
            registry,
            cache: VerifyCache::new(),
            products: ProductStore::new(),
            wal,
        };
        for (_, client) in clients {
            mirror
                .products
                .warm(
                    client,
                    &mirror.repo,
                    &mirror.registry,
                    &compositional(),
                    Some(&mirror.cache),
                )
                .expect("generated scenarios synthesize");
        }
        Ok(mirror)
    }

    /// Replays one request frame through the layers, under a root span
    /// named after its kind.
    pub fn replay(&mut self, t: &mut Tracer, req: u64, kind: Kind, frame: &[u8]) {
        t.enter(
            match kind {
                Kind::Plan(_) => "server.plan",
                Kind::Write(_) => "server.write",
            },
            req,
        );
        t.enter("proto.decode", req);
        let text = std::str::from_utf8(&frame[4..]).expect("request frames are UTF-8");
        let request = json::parse(text).expect("request frames are JSON");
        t.exit();
        let reply = match request.str_field("cmd") {
            Some("plan") => self.plan(t, req, &request),
            Some("publish") => self.publish(t, req, &request),
            _ => self.retract(t, req, &request),
        };
        t.enter("proto.encode", req);
        let bytes = proto::encode_frame(&reply).expect("reply frames are small");
        t.exit();
        std::hint::black_box(bytes);
        t.exit();
    }

    fn plan(&mut self, t: &mut Tracer, req: u64, request: &Json) -> Json {
        t.enter("hexpr.parse_hist", req);
        let client = parse_hist(request.str_field("client").expect("plan names a client"))
            .expect("generated clients parse");
        t.exit();
        t.enter("product.read_valid", req);
        let (valid, total, stats) = self
            .products
            .read_valid(
                &client,
                &self.repo,
                &self.registry,
                &compositional(),
                Some(&self.cache),
                1,
            )
            .expect("generated scenarios synthesize");
        match &stats.product {
            Some(p) if p.patched > 0 => t.rename("product.patch"),
            Some(p) if !p.reused => t.rename("product.build"),
            _ => {}
        }
        t.exit();
        let valid: Vec<Json> = valid.iter().map(|p| Json::str(p.to_string())).collect();
        proto::ok()
            .with("valid", valid)
            .with("valid_total", total)
            .with("stats", synth_stats_json(&stats))
    }

    fn journal(&mut self, t: &mut Tracer, req: u64, request: &Json, reply: Json) -> Json {
        if let Some(wal) = self.wal.as_mut() {
            t.enter("wal.append", req);
            let seq = wal.append(request, &reply).expect("journal append");
            t.exit();
            return reply.with("seq", seq);
        }
        reply
    }

    fn publish(&mut self, t: &mut Tracer, req: u64, request: &Json) -> Json {
        let location = Location::new(
            request
                .str_field("location")
                .expect("publish names a location"),
        );
        t.enter("hexpr.parse_hist", req);
        let service = parse_hist(
            request
                .str_field("service")
                .expect("publish carries a service"),
        )
        .expect("generated services parse");
        t.exit();
        t.enter("repo.apply", req);
        let event = self
            .repo
            .try_publish(location.clone(), service)
            .expect("well-formed");
        t.exit();
        t.enter("cache.invalidate", req);
        let evicted = self.cache.invalidate_location(&location);
        t.exit();
        let reply = proto::ok()
            .with("event", event.to_string())
            .with("evicted", evicted);
        self.journal(t, req, request, reply)
    }

    fn retract(&mut self, t: &mut Tracer, req: u64, request: &Json) -> Json {
        let location = Location::new(
            request
                .str_field("location")
                .expect("retract names a location"),
        );
        t.enter("repo.apply", req);
        let event = self.repo.retract(&location);
        t.exit();
        t.enter("cache.invalidate", req);
        let evicted = self.cache.invalidate_location(&location);
        t.exit();
        let reply = proto::ok()
            .with("event", event.to_string())
            .with("changed", event.changed())
            .with("evicted", evicted);
        self.journal(t, req, request, reply)
    }

    /// Bytes per journal record written so far; `None` without a
    /// journal or records.
    pub fn wal_bytes_per_record(&self) -> Option<f64> {
        let wal = self.wal.as_ref()?;
        let records = wal.records_since_truncate();
        (records > 0).then(|| wal.bytes_since_truncate() as f64 / records as f64)
    }
}

/// Times the layers a product build is made of, over every client
/// request × service edge and every surviving plan of `repo`, and a
/// cold product build per client. Request id 0 tags these spans.
pub fn core_layers(
    t: &mut Tracer,
    repo: &Repository,
    registry: &PolicyRegistry,
    clients: &[(String, Hist)],
) {
    for (_, service) in repo.iter() {
        t.enter("hexpr.project", 0);
        std::hint::black_box(project(service));
        t.exit();
    }
    let servers: Vec<Contract> = repo
        .iter()
        .filter_map(|(_, s)| Contract::from_service(s).ok())
        .collect();
    for (_, client) in clients {
        t.enter("core.client", 0);
        for info in requests(client) {
            let Ok(body) = Contract::from_service(&info.body) else {
                continue;
            };
            for server in &servers {
                t.enter("contract.compliance", 0);
                std::hint::black_box(compliant(&body, server).holds());
                t.exit();
            }
        }
        t.enter("product.build", 0);
        let store = ProductStore::new();
        let synthesis = store
            .synthesize(
                client,
                repo,
                registry,
                &compositional(),
                Some(&VerifyCache::new()),
            )
            .expect("generated scenarios synthesize");
        t.exit();
        for verdict in synthesis.report.verdicts() {
            t.enter("policy.validity", 0);
            let v = check_validity(
                SymState::initial("client", client.clone()),
                |s| symbolic_successors(s, &verdict.plan, repo),
                registry,
                DEFAULT_STATE_BOUND,
            );
            std::hint::black_box(v.is_ok());
            t.exit();
        }
        t.exit();
    }
}

/// Times `snapshot::write` of the given state into `dir`, `reps` times;
/// returns each duration in ms.
///
/// # Errors
///
/// Creating the directory or writing the snapshot.
pub fn snapshot_write_ms(
    dir: &Path,
    repo: &Repository,
    registry: &PolicyRegistry,
    clients: &[(String, Hist)],
    reps: usize,
) -> std::io::Result<Vec<f64>> {
    std::fs::create_dir_all(dir)?;
    let mut out = Vec::new();
    for _ in 0..reps {
        let started = Instant::now();
        snapshot::write(dir, 1, repo, registry, clients, &[])?;
        out.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok(out)
}
