//! Compositional plan synthesis: the composed product.
//!
//! The enumerative pipeline ([`crate::verify::synthesize`]) re-walks a
//! plan space exponential in the number of requests on *every* query,
//! although the repository state it walks rarely changes between
//! queries. Following the contract-automata line (one product/controller
//! object from which all valid orchestrations are read off), this module
//! computes a **composed product** of the client behaviour × the exposed
//! service interfaces once per repository state:
//!
//! * an **edge relation** `request × location → admissible?` — one
//!   pairwise compliance check per `(request body, service)` pair (via
//!   the Theorem 1 product automaton, memoized in the [`VerifyCache`]),
//!   instead of one per candidate plan;
//! * the **surviving plan set** — the depth-first closure of the edge
//!   relation over exposed requests, with inadmissible branches cut
//!   *during construction* (never expanded);
//! * the **materialized verdicts** — each surviving plan's security and
//!   progress checks, run once and stored.
//!
//! A query then *reads off* valid plans (any, all up to the cap, or
//! first-k) from the materialized map in time proportional to the
//! result, not to the candidate space.
//!
//! # Incremental maintenance
//!
//! Freshness is checked in two steps. First, **content stamps**: the
//! [`Repository`] and the [`PolicyRegistry`] each carry a stamp drawn
//! from one process-global counter on every content-changing mutation
//! and copied by `Clone`, so equal stamps imply equal content. A query
//! whose `(repository, registry)` stamps equal the ones the product
//! recorded is a pure read-off: no fingerprint is computed, and the
//! admissible/total edge counts and the valid-plan list are read from
//! values stored at build/patch time. The work per unchanged-state
//! query is independent of the repository width, the registry size and
//! the plan-space width.
//!
//! Second, on a stamp miss, **fingerprints** locate what changed, with
//! the same `shash` idiom as the incremental lint engine: the product
//! stores a per-location fingerprint of `(service behaviour, capacity)`
//! — taken once by the repository when it inserts the service and
//! copied from there — and one fingerprint of the policy registry. Only
//! a side whose stamp moved is diffed, and only the regions whose
//! fingerprints changed are recomputed — edges touching changed
//! locations, plus the verdicts of surviving plans that bind a changed
//! location — so a re-publish of an identical service is still a read.
//! Verdicts of plans whose bound locations are untouched are *reused*
//! (sound for the same reason [`VerifyCache::invalidate_location`] is
//! selective: security and progress consult the repository only at the
//! locations a plan binds). A patched product is byte-identical to a
//! cold rebuild: both paths run the same deterministic checks over the
//! same inputs and store results in plan-sorted maps.
//!
//! # Equivalence with the enumerative engines
//!
//! When compliance pruning is sound (every request identifier carries
//! one structural body — see `prune_safe_bodies`), the product's report
//! equals the *pruned* enumerative report: the surviving plans with
//! their verdicts, from which compliance-rejected candidates have been
//! cut. Its valid-plan set equals the *full* enumerative report's valid
//! set (pruning only ever cuts invalid candidates). When pruning is
//! unsound the product falls back to materializing every candidate's
//! verdict, and the report equals the full enumerative report. The plan
//! cap counts distinct surviving candidates.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sufs_hexpr::shash::stable_hash_of;
use sufs_hexpr::RequestId;
use sufs_hexpr::{wf, Hist, Location};
use sufs_net::{Plan, Repository};
use sufs_policy::PolicyRegistry;

use crate::cache::VerifyCache;
use crate::plans::{search, PlanSpaceExceeded, SearchNode};
use crate::report::VerifyReport;
use crate::verify::{
    check_plan, prune_safe_bodies, ComplianceMemo, Engine, PlanVerdict, SynthStats, Synthesis,
    SynthesisOptions, VerifyError,
};

/// Per-query product instrumentation, surfaced in
/// [`SynthStats::product`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProductInfo {
    /// Whether an existing product was reused (possibly after a patch)
    /// instead of built from scratch.
    pub reused: bool,
    /// Changed regions repaired by the incremental patch: mutated
    /// locations, plus one for a registry change.
    pub patched: usize,
    /// Admissible `(request, location)` edges in the product.
    pub admissible_edges: usize,
    /// Total `(request, location)` edges examined.
    pub total_edges: usize,
}

/// Store-level counters, surfaced in broker `stats` and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProductStats {
    /// Products built from scratch.
    pub builds: u64,
    /// Incremental patches applied (queries that repaired ≥ 1 region).
    pub patches: u64,
    /// Queries answered by reading off a current product unchanged.
    pub reads: u64,
    /// Products evicted to respect the store capacity.
    pub evictions: u64,
    /// Products currently resident.
    pub entries: usize,
}

/// The repository signature: the stored `(service, capacity)`
/// fingerprint of every published location.
fn repo_signature(repo: &Repository) -> BTreeMap<Location, u64> {
    repo.fingerprints()
        .map(|(loc, fp)| (loc.clone(), fp))
        .collect()
}

/// The composed product for one client over one repository state.
#[derive(Debug, Clone)]
struct Product {
    /// Content stamps of the repository and registry the product is
    /// current for: equal stamps imply equal content.
    repo_stamp: u64,
    registry_stamp: u64,
    /// Fingerprint of `(service, capacity)` per location at build time.
    repo_sig: BTreeMap<Location, u64>,
    /// Fingerprint of the policy registry at build time.
    registry_fp: u64,
    /// The per-request bodies the edge relation committed to, or `None`
    /// when compliance pruning is unsound (ambiguous bodies) and the
    /// product materializes every candidate instead.
    bodies: Option<HashMap<RequestId, Hist>>,
    /// `request × location → admissible` (empty when `bodies` is `None`).
    edges: BTreeMap<RequestId, BTreeMap<Location, bool>>,
    /// Every surviving plan with its materialized verdict.
    verdicts: BTreeMap<Plan, PlanVerdict>,
    /// Subtrees cut while enumerating the surviving set.
    pruned_subtrees: usize,
    /// Admissible `(request, location)` edges, counted at build/patch.
    admissible_edges: usize,
    /// All `(request, location)` edges, counted at build/patch.
    total_edges: usize,
    /// The valid plans, in plan order, collected at build/patch.
    valid: Vec<Plan>,
}

impl Product {
    /// Recomputes the counts and the valid list a query reads off.
    fn recount(&mut self) {
        self.admissible_edges = self
            .edges
            .values()
            .map(|row| row.values().filter(|a| **a).count())
            .sum();
        self.total_edges = self.edges.values().map(BTreeMap::len).sum();
        self.valid = self
            .verdicts
            .values()
            .filter(|v| v.is_valid())
            .map(|v| v.plan.clone())
            .collect();
    }
}

/// Recomputes the admissibility row of request `r` (body `body`) at the
/// given locations. An edge stays admissible on projection errors, so
/// full verification — not the prune — surfaces them, mirroring the
/// enumerative prune predicate.
fn edge_row<'a>(
    body: &Hist,
    locations: impl Iterator<Item = (&'a Location, &'a Hist)>,
    cache: Option<&VerifyCache>,
) -> BTreeMap<Location, bool> {
    let client_side = crate::verify::contract_of(cache, body);
    locations
        .map(|(loc, service)| {
            let admissible = match (&client_side, crate::verify::contract_of(cache, service)) {
                (Ok(c), Ok(s)) => crate::verify::witness_of(cache, c, &s).is_none(),
                _ => true,
            };
            (loc.clone(), admissible)
        })
        .collect()
}

/// Enumerates the distinct surviving plans under the product's edge
/// relation, cutting inadmissible branches during construction.
fn surviving_plans(
    client: &Hist,
    repo: &Repository,
    edges: &BTreeMap<RequestId, BTreeMap<Location, bool>>,
    cap: usize,
) -> Result<(BTreeSet<Plan>, usize), PlanSpaceExceeded> {
    let mut seen: BTreeSet<Plan> = BTreeSet::new();
    let pruned = search(
        SearchNode::root(client),
        repo,
        &mut |_plan, r, loc| matches!(edges.get(&r).and_then(|row| row.get(loc)), Some(false)),
        &mut |plan| {
            if seen.contains(&plan) {
                return Ok(());
            }
            if seen.len() >= cap {
                return Err(PlanSpaceExceeded { cap });
            }
            seen.insert(plan);
            Ok(())
        },
    )?;
    Ok((seen, pruned))
}

fn build_product(
    client: &Hist,
    repo: &Repository,
    registry: &PolicyRegistry,
    cap: usize,
    cache: Option<&VerifyCache>,
) -> Result<Product, VerifyError> {
    let bodies = prune_safe_bodies(client, repo);
    let edges: BTreeMap<RequestId, BTreeMap<Location, bool>> = match &bodies {
        Some(map) => map
            .iter()
            .map(|(r, body)| (*r, edge_row(body, repo.iter(), cache)))
            .collect(),
        None => BTreeMap::new(),
    };
    let (surviving, pruned_subtrees) = surviving_plans(client, repo, &edges, cap)?;
    let comp = cache.map(|c| c.intern(client));
    let memo = ComplianceMemo::new();
    let mut verdicts = BTreeMap::new();
    for plan in surviving {
        let verdict = check_plan(
            client,
            comp,
            &plan,
            repo,
            registry,
            cache,
            Some(&memo),
            true,
        )?;
        verdicts.insert(plan, verdict);
    }
    let mut product = Product {
        repo_stamp: repo.stamp(),
        registry_stamp: registry.stamp(),
        repo_sig: repo_signature(repo),
        registry_fp: registry.fingerprint(),
        bodies,
        edges,
        verdicts,
        pruned_subtrees,
        admissible_edges: 0,
        total_edges: 0,
        valid: Vec::new(),
    };
    product.recount();
    Ok(product)
}

/// Patches `product` to the current `(repo, registry)` state, repairing
/// only the regions whose fingerprints changed. Returns the number of
/// repaired regions (0 = the product was already current).
///
/// Equal content stamps answer "nothing changed" without touching a
/// fingerprint; only a side whose stamp moved is diffed, and the diff
/// (not the stamp) decides what is repaired, so a re-publish of the
/// same service patches nothing. On error the product is left as it
/// was, still recording the state it is current for.
fn patch_product(
    product: &mut Product,
    client: &Hist,
    repo: &Repository,
    registry: &PolicyRegistry,
    cap: usize,
    cache: Option<&VerifyCache>,
) -> Result<usize, VerifyError> {
    if (repo.stamp(), registry.stamp()) == (product.repo_stamp, product.registry_stamp) {
        return Ok(0);
    }
    let new_sig = (repo.stamp() != product.repo_stamp).then(|| repo_signature(repo));
    let changed: BTreeSet<Location> = match &new_sig {
        Some(new_sig) => product
            .repo_sig
            .iter()
            .filter(|(loc, fp)| new_sig.get(*loc) != Some(fp))
            .map(|(loc, _)| loc.clone())
            .chain(
                new_sig
                    .keys()
                    .filter(|loc| !product.repo_sig.contains_key(*loc))
                    .cloned(),
            )
            .collect(),
        None => BTreeSet::new(),
    };
    let new_registry_fp =
        (registry.stamp() != product.registry_stamp).then(|| registry.fingerprint());
    let registry_changed = new_registry_fp.is_some_and(|fp| fp != product.registry_fp);
    if changed.is_empty() && !registry_changed {
        product.repo_stamp = repo.stamp();
        product.registry_stamp = registry.stamp();
        return Ok(0);
    }

    // The repaired `(bodies, edges)`, committed only once every check
    // below has succeeded.
    let repaired = (!changed.is_empty()).then(|| {
        let bodies = prune_safe_bodies(client, repo);
        let edges = match (&product.bodies, &bodies) {
            (Some(old), Some(new)) => {
                // Requests whose committed body changed (or that are new)
                // re-check every location; stable requests re-check only
                // the changed locations.
                let mut edges = BTreeMap::new();
                for (r, body) in new {
                    let row = match (old.get(r), product.edges.get(r)) {
                        (Some(old_body), Some(old_row)) if old_body == body => {
                            let mut row: BTreeMap<Location, bool> = old_row
                                .iter()
                                .filter(|(loc, _)| !changed.contains(*loc))
                                .map(|(loc, a)| (loc.clone(), *a))
                                .collect();
                            let touched = repo.iter().filter(|(loc, _)| changed.contains(*loc));
                            row.extend(edge_row(body, touched, cache));
                            row
                        }
                        _ => edge_row(body, repo.iter(), cache),
                    };
                    edges.insert(*r, row);
                }
                edges
            }
            // The product previously ran unpruned; rebuild the whole
            // edge relation.
            (_, Some(new)) => new
                .iter()
                .map(|(r, body)| (*r, edge_row(body, repo.iter(), cache)))
                .collect(),
            // Bodies became ambiguous: pruning is off from here on.
            (_, None) => BTreeMap::new(),
        };
        (bodies, edges)
    });
    let edges = repaired.as_ref().map_or(&product.edges, |(_, edges)| edges);

    let (surviving, pruned_subtrees) = surviving_plans(client, repo, edges, cap)?;
    let comp = cache.map(|c| c.intern(client));
    let memo = ComplianceMemo::new();
    let mut verdicts = BTreeMap::new();
    for plan in surviving {
        let untouched = !registry_changed && !plan.iter().any(|(_, loc)| changed.contains(loc));
        let verdict = match product.verdicts.get(&plan) {
            Some(v) if untouched => v.clone(),
            _ => check_plan(
                client,
                comp,
                &plan,
                repo,
                registry,
                cache,
                Some(&memo),
                true,
            )?,
        };
        verdicts.insert(plan, verdict);
    }
    if let Some((bodies, edges)) = repaired {
        product.bodies = bodies;
        product.edges = edges;
    }
    product.verdicts = verdicts;
    product.pruned_subtrees = pruned_subtrees;
    if let Some(sig) = new_sig {
        product.repo_sig = sig;
    }
    if let Some(fp) = new_registry_fp {
        product.registry_fp = fp;
    }
    product.repo_stamp = repo.stamp();
    product.registry_stamp = registry.stamp();
    product.recount();
    Ok(changed.len() + usize::from(registry_changed))
}

#[derive(Debug)]
struct Entry {
    client: Hist,
    client_fp: u64,
    product: Product,
    last_used: u64,
}

/// The default number of resident products.
pub const DEFAULT_STORE_CAPACITY: usize = 64;

/// A bounded store of composed products, keyed by client behaviour:
/// the long-lived structure behind the broker's compositional engine
/// (one entry per distinct client) and the one-shot structure behind
/// `sufs verify --engine compositional`.
///
/// Internally synchronised; a query holds the store lock for the
/// duration of any build/patch it triggers, so concurrent queries for
/// the same repository state serialise on the structure they share —
/// by design, since the second query then reads off the first one's
/// work. When used with a shared [`VerifyCache`], the caller keeps the
/// cache sound exactly as for [`crate::verify::synthesize_with`]
/// (invalidate on every repository/registry mutation); the product
/// itself needs no invalidation calls — every query compares the
/// repository's and registry's content stamps with the ones the product
/// recorded, and diffs fingerprints only when a stamp moved (see the
/// module docs).
#[derive(Debug)]
pub struct ProductStore {
    entries: Mutex<Vec<Entry>>,
    capacity: usize,
    clock: AtomicU64,
    builds: AtomicU64,
    patches: AtomicU64,
    reads: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ProductStore {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_STORE_CAPACITY)
    }
}

impl ProductStore {
    /// An empty store with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store holding at most `capacity` products.
    pub fn with_capacity(capacity: usize) -> Self {
        ProductStore {
            entries: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            patches: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// A snapshot of the store counters.
    pub fn stats(&self) -> ProductStats {
        ProductStats {
            builds: self.builds.load(Ordering::Relaxed),
            patches: self.patches.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.lock().expect("product store poisoned").len(),
        }
    }

    /// Drops every resident product (they rebuild on next query).
    pub fn clear(&self) {
        self.entries.lock().expect("product store poisoned").clear();
    }

    /// Builds (or patches) the product for `client` without reading a
    /// report: the broker's warm-start hook, run after crash recovery
    /// so the first post-recovery query pays read-off price only.
    ///
    /// # Errors
    ///
    /// As [`ProductStore::synthesize`].
    pub fn warm(
        &self,
        client: &Hist,
        repo: &Repository,
        registry: &PolicyRegistry,
        opts: &SynthesisOptions,
        shared: Option<&VerifyCache>,
    ) -> Result<(), VerifyError> {
        self.synthesize(client, repo, registry, opts, shared)
            .map(|_| ())
    }

    /// Compositional synthesis: answers from the resident product for
    /// `client`, building or patching it first if the repository or
    /// registry content moved. Report-equivalent to the pruned
    /// enumerative engine (see the module docs for the exact spec).
    ///
    /// # Errors
    ///
    /// As [`crate::verify::synthesize`]; the plan cap counts distinct
    /// surviving candidates.
    pub fn synthesize(
        &self,
        client: &Hist,
        repo: &Repository,
        registry: &PolicyRegistry,
        opts: &SynthesisOptions,
        shared: Option<&VerifyCache>,
    ) -> Result<Synthesis, VerifyError> {
        let (verdicts, stats) = self.with_entry(client, repo, registry, opts, shared, |p| {
            p.verdicts.values().cloned().collect::<Vec<PlanVerdict>>()
        })?;
        Ok(Synthesis {
            report: VerifyReport::new(verdicts),
            stats,
        })
    }

    /// The production read-off: the first `k` valid plans plus the
    /// total valid count, straight from the resident product. Unlike
    /// [`ProductStore::synthesize`] this never materialises the full
    /// verdict map, so a query costs the same however wide the plan
    /// space is — the broker's `max_valid` fast path.
    ///
    /// # Errors
    ///
    /// As [`ProductStore::synthesize`].
    pub fn read_valid(
        &self,
        client: &Hist,
        repo: &Repository,
        registry: &PolicyRegistry,
        opts: &SynthesisOptions,
        shared: Option<&VerifyCache>,
        k: usize,
    ) -> Result<(Vec<Plan>, usize, SynthStats), VerifyError> {
        let ((valid, total), stats) =
            self.with_entry(client, repo, registry, opts, shared, |p| {
                (p.valid.iter().take(k).cloned().collect(), p.valid.len())
            })?;
        Ok((valid, total, stats))
    }

    /// Shared maintenance path: locate (or build) the resident product
    /// for `client`, patch it if the repository or registry content
    /// moved, and hand it to `read` under the store lock.
    fn with_entry<T>(
        &self,
        client: &Hist,
        repo: &Repository,
        registry: &PolicyRegistry,
        opts: &SynthesisOptions,
        shared: Option<&VerifyCache>,
        read: impl FnOnce(&Product) -> T,
    ) -> Result<(T, SynthStats), VerifyError> {
        let start = Instant::now();
        wf::check(client).map_err(VerifyError::IllFormedClient)?;
        let local;
        let (cache, mark) = if !opts.cache {
            (None, None)
        } else if let Some(shared) = shared {
            (Some(shared), Some(shared.stats()))
        } else {
            local = VerifyCache::new();
            (Some(&local), None)
        };

        let client_fp = stable_hash_of(client);
        let now = self.tick();
        let mut entries = self.entries.lock().expect("product store poisoned");
        let slot = entries
            .iter()
            .position(|e| e.client_fp == client_fp && e.client == *client);
        let mut info = ProductInfo::default();
        let entry = match slot {
            Some(i) => {
                let entry = &mut entries[i];
                let patched = patch_product(
                    &mut entry.product,
                    client,
                    repo,
                    registry,
                    opts.plan_cap,
                    cache,
                )?;
                if patched > 0 {
                    self.patches.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.reads.fetch_add(1, Ordering::Relaxed);
                }
                info.reused = true;
                info.patched = patched;
                entry.last_used = now;
                entry
            }
            None => {
                let product = build_product(client, repo, registry, opts.plan_cap, cache)?;
                self.builds.fetch_add(1, Ordering::Relaxed);
                if entries.len() >= self.capacity {
                    if let Some(oldest) = entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(i, _)| i)
                    {
                        entries.remove(oldest);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                entries.push(Entry {
                    client: client.clone(),
                    client_fp,
                    product,
                    last_used: now,
                });
                entries.last_mut().expect("just pushed")
            }
        };

        info.admissible_edges = entry.product.admissible_edges;
        info.total_edges = entry.product.total_edges;
        let candidates = entry.product.verdicts.len();
        let pruned_subtrees = entry.product.pruned_subtrees;
        let prune_active = entry.product.bodies.is_some();
        let out = read(&entry.product);
        drop(entries);

        let stats = SynthStats {
            candidates,
            pruned_subtrees,
            jobs: 1,
            prune_active,
            cache: cache.map(|c| match &mark {
                Some(mark) => c.stats().since(mark),
                None => c.stats(),
            }),
            engine: Engine::Compositional,
            product: Some(info),
            elapsed: start.elapsed(),
        };
        Ok((out, stats))
    }

    /// The *full* plan space for `client` over `repo` (no pruning), up
    /// to `cap` distinct plans: the product-backed replacement for raw
    /// enumeration, used by the lint engine's plan-space caches. The
    /// result is identical to `enumerate_plans` — the product only
    /// contributes its closure walk.
    ///
    /// # Errors
    ///
    /// Returns [`PlanSpaceExceeded`] past the cap.
    pub fn plan_space(
        &self,
        client: &Hist,
        repo: &Repository,
        cap: usize,
    ) -> Result<Vec<Plan>, PlanSpaceExceeded> {
        let (plans, _) = surviving_plans(client, repo, &BTreeMap::new(), cap)?;
        Ok(plans.into_iter().collect())
    }
}

/// One-shot compositional synthesis against a fresh store: the path
/// behind [`crate::verify::synthesize_with`] when
/// `opts.engine == Engine::Compositional` and no long-lived store is
/// supplied.
///
/// # Errors
///
/// As [`ProductStore::synthesize`].
pub fn synthesize_one_shot(
    client: &Hist,
    repo: &Repository,
    registry: &PolicyRegistry,
    opts: &SynthesisOptions,
    shared: Option<&VerifyCache>,
) -> Result<Synthesis, VerifyError> {
    ProductStore::with_capacity(1).synthesize(client, repo, registry, opts, shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{synthesize, SynthesisOptions};
    use sufs_hexpr::builder::*;

    fn client2() -> Hist {
        Hist::seq_all((0..2).map(|i| {
            request(
                i as u32 + 1,
                None,
                seq([send("q", eps()), offer([("a", eps())])]),
            )
        }))
    }

    fn mixed_repo() -> Repository {
        let mut repo = Repository::new();
        for i in 0..2 {
            repo.publish(format!("good{i}"), recv("q", choose([("a", eps())])));
        }
        for i in 0..2 {
            repo.publish(format!("bad{i}"), recv("q", choose([("b", eps())])));
        }
        repo
    }

    #[test]
    fn product_matches_enumerative_valid_set() {
        let client = client2();
        let repo = mixed_repo();
        let registry = PolicyRegistry::new();
        let opts = SynthesisOptions::default();
        let enumerative = synthesize(&client, &repo, &registry, &opts).unwrap();
        let store = ProductStore::new();
        let compositional = store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        let expected: Vec<_> = enumerative.report.valid_plans().collect();
        let got: Vec<_> = compositional.report.valid_plans().collect();
        assert_eq!(expected, got);
        assert_eq!(compositional.stats.engine, Engine::Compositional);
        // Pruning cut the bad-binding candidates during construction.
        assert_eq!(compositional.report.len(), 4); // 2² survivors of 4²
        assert!(compositional.stats.prune_active);
        let info = compositional.stats.product.unwrap();
        assert!(!info.reused);
        assert_eq!(info.admissible_edges, 4); // 2 requests × 2 good
        assert_eq!(info.total_edges, 8); // 2 requests × 4 services
    }

    #[test]
    fn unchanged_state_reads_off_without_patching() {
        let client = client2();
        let repo = mixed_repo();
        let registry = PolicyRegistry::new();
        let opts = SynthesisOptions::default();
        let store = ProductStore::new();
        store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        let again = store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        let info = again.stats.product.unwrap();
        assert!(info.reused);
        assert_eq!(info.patched, 0);
        let stats = store.stats();
        assert_eq!((stats.builds, stats.patches, stats.reads), (1, 0, 1));
    }

    #[test]
    fn publish_patches_only_the_touched_region() {
        let client = client2();
        let mut repo = mixed_repo();
        let registry = PolicyRegistry::new();
        let opts = SynthesisOptions::default();
        let store = ProductStore::new();
        store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        repo.publish("good2", recv("q", choose([("a", eps())])));
        let patched = store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        let info = patched.stats.product.unwrap();
        assert!(info.reused);
        assert_eq!(info.patched, 1);
        assert_eq!(patched.report.len(), 9); // 3² survivors
                                             // Byte-identical to a cold rebuild.
        let cold = ProductStore::new()
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        assert_eq!(cold.report.verdicts(), patched.report.verdicts());
        assert_eq!(store.stats().patches, 1);
    }

    #[test]
    fn retract_drops_the_plans_binding_the_location() {
        let client = client2();
        let mut repo = mixed_repo();
        let registry = PolicyRegistry::new();
        let opts = SynthesisOptions::default();
        let store = ProductStore::new();
        store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        repo.retract(&Location::new("good1"));
        let patched = store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        assert_eq!(patched.report.len(), 1); // only good0ʳ survives
        let cold = ProductStore::new()
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        assert_eq!(cold.report.verdicts(), patched.report.verdicts());
    }

    fn cold(client: &Hist, repo: &Repository, registry: &PolicyRegistry) -> Synthesis {
        ProductStore::new()
            .synthesize(client, repo, registry, &SynthesisOptions::default(), None)
            .unwrap()
    }

    #[test]
    fn unrelated_repository_with_as_many_mutations_is_not_aliased() {
        // Two repositories built apart, each by four publishes: a
        // per-instance mutation counter would give them equal stamps.
        let client = client2();
        let registry = PolicyRegistry::new();
        let opts = SynthesisOptions::default();
        let a = mixed_repo();
        let mut b = Repository::new();
        for i in 0..4 {
            b.publish(format!("good{i}"), recv("q", choose([("a", eps())])));
        }
        let store = ProductStore::new();
        store
            .synthesize(&client, &a, &registry, &opts, None)
            .unwrap();
        let on_b = store
            .synthesize(&client, &b, &registry, &opts, None)
            .unwrap();
        assert_eq!(on_b.report.len(), 16);
        assert_eq!(
            on_b.report.verdicts(),
            cold(&client, &b, &registry).report.verdicts()
        );
        let (valid, total, _) = store
            .read_valid(&client, &b, &registry, &opts, None, 1)
            .unwrap();
        assert_eq!(total, 16);
        assert_eq!(valid.len(), 1);
    }

    #[test]
    fn rollback_to_a_saved_clone_reads_the_restored_state() {
        let client = client2();
        let mut repo = mixed_repo();
        let registry = PolicyRegistry::new();
        let opts = SynthesisOptions::default();
        let store = ProductStore::new();
        store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        let saved = repo.clone();
        repo.publish("good2", recv("q", choose([("a", eps())])));
        store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        // The rollback a refused mutation performs: the saved clone
        // carries its own stamp back with its content.
        repo = saved;
        let restored = store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        assert_eq!(
            restored.report.verdicts(),
            cold(&client, &repo, &registry).report.verdicts()
        );
        let patches = store.stats().patches;
        let again = store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        assert_eq!(again.report.verdicts(), restored.report.verdicts());
        assert_eq!(store.stats().patches, patches);

        // Mutate and roll back with no query in between: the product
        // never left the restored stamp, so this is a read.
        let saved = repo.clone();
        repo.retract(&Location::new("good0"));
        repo = saved;
        let reads = store.stats().reads;
        store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        assert_eq!(store.stats().patches, patches);
        assert_eq!(store.stats().reads, reads + 1);
    }

    #[test]
    fn identical_republish_and_reregister_are_reads() {
        let client = client2();
        let mut repo = mixed_repo();
        let mut registry = PolicyRegistry::with_catalog();
        let opts = SynthesisOptions::default();
        let store = ProductStore::new();
        store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        // New stamps, same content: the fingerprint diff finds nothing.
        repo.publish("good0", recv("q", choose([("a", eps())])));
        registry.register(sufs_policy::catalog::hotel_policy());
        let again = store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        assert_eq!(again.stats.product.unwrap().patched, 0);
        // A real registry change is one repaired region.
        registry.remove("hotel");
        let patched = store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        assert_eq!(patched.stats.product.unwrap().patched, 1);
        let stats = store.stats();
        assert_eq!((stats.builds, stats.patches, stats.reads), (1, 1, 1));
    }

    #[test]
    fn failed_patch_leaves_the_product_at_its_recorded_state() {
        let client = client2();
        let mut repo = mixed_repo();
        let registry = PolicyRegistry::new();
        let opts = SynthesisOptions {
            plan_cap: 4, // exactly the 2² survivors of mixed_repo
            ..SynthesisOptions::default()
        };
        let store = ProductStore::new();
        store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        repo.publish("good2", recv("q", choose([("a", eps())])));
        let err = store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap_err();
        assert!(matches!(err, VerifyError::PlanSpace(_)));
        // Back to the original content under a new stamp: the product
        // still describes that content, so nothing is repaired.
        repo.retract(&Location::new("good2"));
        let back = store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        assert_eq!(back.stats.product.unwrap().patched, 0);
        assert_eq!(
            back.report.verdicts(),
            cold(&client, &repo, &registry).report.verdicts()
        );
        let info = back.stats.product.unwrap();
        assert_eq!((info.admissible_edges, info.total_edges), (4, 8));
    }

    #[test]
    fn store_capacity_evicts_least_recent() {
        let repo = mixed_repo();
        let registry = PolicyRegistry::new();
        let opts = SynthesisOptions::default();
        let store = ProductStore::with_capacity(1);
        store
            .synthesize(&client2(), &repo, &registry, &opts, None)
            .unwrap();
        let other = request(9u32, None, seq([send("q", eps()), offer([("a", eps())])]));
        store
            .synthesize(&other, &repo, &registry, &opts, None)
            .unwrap();
        let stats = store.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.builds, 2);
    }

    #[test]
    fn plan_space_matches_enumeration() {
        let client = client2();
        let repo = mixed_repo();
        let store = ProductStore::new();
        let via_product = store.plan_space(&client, &repo, 1000).unwrap();
        let direct = crate::plans::enumerate_plans(&client, &repo, 1000).unwrap();
        assert_eq!(via_product, direct);
        assert_eq!(via_product.len(), 16);
    }

    #[test]
    fn cap_counts_distinct_surviving_candidates() {
        let client = client2();
        let repo = mixed_repo();
        let registry = PolicyRegistry::new();
        let opts = SynthesisOptions {
            plan_cap: 3, // 4 survivors exist
            ..SynthesisOptions::default()
        };
        let err = ProductStore::new()
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap_err();
        assert!(matches!(err, VerifyError::PlanSpace(_)));
    }
}
