//! The control plane's one schedule oracle.
//!
//! A [`Schedule`] is a trace and a sequence of plane operations — push a
//! run of packets (optionally after stalling past the ring dwell), attach
//! (with or without per-shard sinks), detach, `score_with`,
//! `set_table_budget`, and snapshot-then-restore into a fresh plane — run
//! at one worker count. [`run`] plays it on a [`CtrlPlane`] and holds every
//! tenant to the isolation contract: its group, packet and evicted vectors,
//! its alerts and its sink egress equal those of its solo run over its
//! window, under the same table budget and detector. A restored plane must
//! keep the topology it was saved with and go on exactly as the solo runs
//! do, which is what the uninterrupted plane is held to; and `finish` must
//! return tenants in ascending id. [`run`] also names the shapes the
//! schedule reached, which is what the generator's reach table counts.
//!
//! `plane_schedules.rs` draws schedules; `ctrl_isolation.rs` and
//! `plane_snapshot.rs` keep a few fixed ones under the names of the tests
//! they replaced. Each test crate uses a part of this module.
#![allow(dead_code)]

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use superfe::ctrl::{CtrlError, CtrlPlane, TenantSpec};
use superfe::ml::{MlError, Scorer, SharedScorer};
use superfe::net::{Direction, Granularity, GroupKey, PacketRecord};
use superfe::nic::{EgressVector, EvictionPolicy, StreamOutput, TableBudget, VectorSink};
use superfe::policy::dsl;
use superfe::stream::DataPath;
use superfe::switch::tenant::TenantId;
use superfe::switch::CgEvictPolicy;
use superfe::{gate, AnalyzeConfig, SuperFeConfig};

/// The worker counts schedules run at.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The tenant pool. Entries 0–3 differ in granularity, filter and collect
/// unit, entry 2 is multi-granularity (the per-tenant FG broadcast);
/// entries 4–7 share entry 1's parse → filter(tcp.exist) → groupby(flow)
/// switch prefix with other reduce tails (SF08xx prefix sharing); entry 8
/// shares entry 0's groupby(host) prefix with a per-packet tail that reads
/// another metadata field, so joining it re-lays the partition's record.
/// Drawing an entry twice gives the duplicate policy (SF07xx fusion).
pub const POOL: [&str; 9] = [
    "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
    "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_mean, f_max])\n.collect(flow)",
    "pktstream\n.groupby(socket)\n.reduce(size, [f_sum])\n.collect(socket)\n\
     .groupby(host)\n.reduce(size, [f_mean])\n.collect(host)",
    "pktstream\n.filter(udp.exist)\n.groupby(channel)\n.reduce(size, [f_min, f_max])\n.collect(pkt)",
    "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)",
    "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_mean])\n.collect(flow)",
    "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_max])\n.collect(flow)",
    "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_min, f_max])\n.collect(flow)",
    "pktstream\n.groupby(host)\n.map(ipt, tstamp, f_ipt)\n.reduce(ipt, [f_mean])\n.collect(pkt)",
];

/// Each pool entry's switch prefix: entries of one class under one
/// configuration may share a partition.
const PREFIX: [u8; 9] = [0, 1, 2, 3, 1, 1, 1, 1, 0];

/// One plane operation.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Push the next `n` packets of the trace, first sleeping past the
    /// ring dwell when `stall`.
    Push { n: usize, stall: bool },
    /// Attach a tenant running `POOL[policy]`, under the [`tight`] cache
    /// when `tight`, with one sink per shard when `sinks`.
    Attach {
        policy: usize,
        sinks: bool,
        tight: bool,
    },
    /// Attach another tenant running the `n`th live tenant's policy under
    /// its configuration, counted as for `Detach`, with sinks when `sinks`:
    /// the duplicate policy, which fuses while the stream has not moved.
    Duplicate { n: usize, sinks: bool },
    /// Attach a tenant whose policy shares the `n`th live tenant's switch
    /// prefix with another tail (its own policy when none does), under its
    /// configuration: SF08xx prefix sharing while the stream has not moved.
    Sharer { n: usize, sinks: bool },
    /// Detach the `n`th live tenant in id order, counted modulo the live
    /// ones; nothing when none is live.
    Detach(usize),
    /// Give the `n`th live tenant without a detector, counted the same
    /// way, the [`Sum`] detector.
    Score(usize),
    /// Set the table budget of the units attached from here on.
    Budget(TableBudget),
    /// Snapshot the plane, retire it (the crash a snapshot is for), and go
    /// on with a plane restored from the bytes.
    Restore,
}

/// A trace and the operations played over it at one worker count. The
/// packets no `Push` reached are pushed before `finish`.
#[derive(Clone, Debug)]
pub struct Schedule {
    pub workers: usize,
    pub trace: Vec<PacketRecord>,
    pub ops: Vec<Op>,
}

/// Attach a tenant running `POOL[policy]` under the default cache,
/// without sinks.
pub fn attach(policy: usize) -> Op {
    Op::Attach {
        policy,
        sinks: false,
        tight: false,
    }
}

/// Push the next `n` packets without a stall.
pub fn push(n: usize) -> Op {
    Op::Push { n, stall: false }
}

/// How long a stalled push sleeps: two and a half ring dwells (the dwell
/// is 1 ms, private to `superfe::net::ring`), so every worker has asked
/// for its partial frame by the time the next packet is pushed.
const STALL: std::time::Duration = std::time::Duration::from_micros(2_500);

/// The tight cache: 64 short buffers of two records, 50 µs aging and a
/// seeded random-way CG policy, so the switch evicts on nearly every
/// insert. A tenant under it shares only with another under it.
pub fn tight() -> SuperFeConfig {
    let mut cfg = SuperFeConfig::default();
    cfg.cache.short_count = 64;
    cfg.cache.short_size = 2;
    cfg.cache.aging_t_ns = Some(50_000);
    cfg.cache.policy = CgEvictPolicy::RandomWay { ways: 4, seed: 9 };
    cfg
}

/// A DRAM spill of `entries` groups under eviction policy `policy % 4`;
/// [`colliders`] overfill a spill of one to three.
pub fn budget(entries: usize, policy: u8) -> TableBudget {
    let policy = match policy % 4 {
        0 => EvictionPolicy::DropNew,
        1 => EvictionPolicy::EvictOldest,
        2 => EvictionPolicy::RandomWay { seed: 7 },
        _ => EvictionPolicy::Lru,
    };
    TableBudget::capped(entries, policy)
}

/// The detector every `Score` gives: a vector scores the sum of its
/// values, whatever its length, and alerts above 1,000.
struct Sum;

impl Scorer for Sum {
    fn name(&self) -> &'static str {
        "sum"
    }

    fn feature_dim(&self) -> usize {
        0
    }

    fn score(&self, x: &[f64]) -> Result<f64, MlError> {
        Ok(x.iter().sum())
    }

    fn threshold(&self) -> f64 {
        1_000.0
    }
}

fn detector() -> SharedScorer {
    Arc::new(Sum)
}

/// One egressed vector: shard, seq, key and value bits.
type Egress = (usize, u64, String, Vec<u64>);

/// Collects a tenant's egress from all of its shards.
struct Collect(Arc<Mutex<Vec<Egress>>>);

impl VectorSink for Collect {
    fn emit(&mut self, e: EgressVector) {
        let bits = e.vector.values.iter().map(|v| v.to_bits()).collect();
        let key = format!("{:?}", e.vector.key);
        self.0.lock().unwrap().push((e.shard, e.seq, key, bits));
    }
}

fn sinks(workers: usize, into: &Arc<Mutex<Vec<Egress>>>) -> Vec<Box<dyn VectorSink>> {
    (0..workers)
        .map(|_| Box::new(Collect(into.clone())) as Box<dyn VectorSink>)
        .collect()
}

/// Group-table buckets per level (`superfe_nic`'s private `TABLE_BUCKETS`);
/// a key's bucket is the low bits of its hash.
const BUCKETS: u32 = 16_384;

/// Eight hosts whose host keys share one group-table bucket, then eight
/// TCP connections whose flow keys do: twice the bucket's width each, so a
/// spill budget of one to three groups evicts or refuses some of them.
pub fn colliders() -> Vec<PacketRecord> {
    let bucket = |k: GroupKey| k.hash32() % BUCKETS;
    let host = |src: u32| GroupKey::Host(src);
    let flow = |src: u32| Granularity::Flow.key_of(&PacketRecord::tcp(0, 0, src, 1500, 4, 443));
    let hosts = (100_000u32..).filter(|&s| bucket(host(s)) == bucket(host(100_000)));
    let flows = (200_000u32..).filter(|&s| bucket(flow(s)) == bucket(flow(200_000)));
    let hosts = hosts
        .take(8)
        .map(|s| PacketRecord::tcp(0, 120, s, 1000, 4, 443));
    let flows = flows
        .take(8)
        .map(|s| PacketRecord::tcp(0, 700, s, 1500, 4, 443));
    hosts.chain(flows).collect()
}

/// The trace of a fixed schedule: `n` packets 700 ns apart from 13
/// hosts, every fifth a DNS datagram and every seventh egress, with the
/// [`colliders`] twice among them.
pub fn steady(n: usize) -> Vec<PacketRecord> {
    let mut pkts: Vec<PacketRecord> = (0..n as u64)
        .map(|i| {
            let host = (i % 13 + 1) as u32;
            let mut p = if i % 5 == 0 {
                PacketRecord::udp(i * 700, 90, host, 53, 4, 53)
            } else {
                PacketRecord::tcp(i * 700, 400 + (i % 37) as u16, host, 1500, 4, 443)
            };
            if i % 7 == 0 {
                p.direction = Direction::Egress;
            }
            p
        })
        .collect();
    let twice = colliders().repeat(2);
    let gap = (n as u64 * 700) / (twice.len() as u64 + 1);
    for (i, c) in twice.into_iter().enumerate() {
        let ts_ns = (i as u64 + 1) * gap + 350;
        pkts.push(PacketRecord { ts_ns, ..c });
    }
    pkts.sort_by_key(|p| p.ts_ns);
    pkts
}

/// Plays `ops` over `trace` at each of `workers`, panicking with the first
/// divergence; returns every shape reached.
pub fn check(ops: &[Op], trace: &[PacketRecord], workers: &[usize]) -> BTreeSet<&'static str> {
    let mut reached = BTreeSet::new();
    for &w in workers {
        let s = Schedule {
            workers: w,
            trace: trace.to_vec(),
            ops: ops.to_vec(),
        };
        match run(&s) {
            Ok(shapes) => reached.extend(shapes),
            Err(e) => panic!("{e}\nops: {ops:?}"),
        }
    }
    reached
}

/// What the plane did with one tenant.
struct Tenant {
    id: TenantId,
    policy: usize,
    spec: TenantSpec,
    sinks: bool,
    /// Packets pushed when it attached and, once detached, when it left.
    from: usize,
    to: Option<usize>,
    /// The budget set before its attach. A fused member joins its unit's
    /// engines, so the join rule fuses it only with a unit under that one.
    budget: TableBudget,
    /// Its unit and partition, by their current ids.
    unit: TenantId,
    group: TenantId,
    /// Where its detector was given, or re-given after the last restore
    /// (a snapshot carries no detector state); and whether it shared its
    /// unit or partition then.
    scored_at: Option<usize>,
    scored_shared: bool,
    /// Whether it lived through a restore.
    restored: bool,
    /// Egress before the last restore, and the collector its live sinks
    /// feed.
    egress_before: Vec<Egress>,
    egress: Arc<Mutex<Vec<Egress>>>,
    out: Option<StreamOutput>,
}

impl Tenant {
    fn live(&self) -> bool {
        self.to.is_none()
    }

    fn egress(&self) -> Vec<Egress> {
        let mut all = self.egress_before.clone();
        all.extend(self.egress.lock().unwrap().iter().cloned());
        all.sort();
        all
    }
}

/// Where in the schedule a plane call failed.
fn at(step: usize, what: &'static str) -> impl Fn(CtrlError) -> String {
    move |e| format!("step {step}: {what}: {e}")
}

/// The id that `ids` gained a count at, if any: which unit (or partition)
/// an attach grew.
fn grown(before: &[(TenantId, usize)], after: &[(TenantId, usize)]) -> Option<TenantId> {
    (after.iter())
        .find(|&&(id, n)| !before.contains(&(id, n)))
        .map(|&(id, _)| id)
}

/// The live tenants `unit` serves.
fn members<'a>(
    tenants: &'a [Tenant],
    live: &'a [usize],
    unit: TenantId,
) -> impl Iterator<Item = &'a Tenant> + 'a {
    (live.iter().map(|&t| &tenants[t])).filter(move |t| t.unit == unit)
}

/// The policy, configuration and sinks of the tenant `op` attaches, given
/// the live tenants; `None` for an op that attaches nothing.
fn candidate(op: Op, live: &[&Tenant]) -> Option<(usize, SuperFeConfig, bool)> {
    let nth = |n: usize| live.get(n % live.len().max(1));
    match op {
        Op::Attach {
            policy,
            sinks,
            tight: true,
        } => Some((policy, tight(), sinks)),
        Op::Attach { policy, sinks, .. } => Some((policy, SuperFeConfig::default(), sinks)),
        Op::Duplicate { n, sinks } => nth(n).map(|t| (t.policy, t.spec.cfg, sinks)),
        Op::Sharer { n, sinks } => nth(n).map(|t| {
            let tails: Vec<usize> = (0..POOL.len())
                .filter(|&p| PREFIX[p] == PREFIX[t.policy] && p != t.policy)
                .collect();
            let policy = tails.get(n % tails.len().max(1));
            (policy.copied().unwrap_or(t.policy), t.spec.cfg, sinks)
        }),
        _ => None,
    }
}

/// Plays `s`, checks every tenant against its solo run and the finish
/// order, and returns the names of the shapes the schedule reached.
pub fn run(s: &Schedule) -> Result<BTreeSet<&'static str>, String> {
    let mut reached = BTreeSet::new();
    let workers = s.workers;
    let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
    let mut tenants: Vec<Tenant> = Vec::new();
    let mut pos = 0;
    let mut budget = TableBudget::default();
    for (step, &op) in s.ops.iter().enumerate() {
        let live: Vec<usize> = (0..tenants.len()).filter(|&t| tenants[t].live()).collect();
        match op {
            Op::Push { n, stall } => {
                if stall {
                    std::thread::sleep(STALL);
                    if !live.is_empty() {
                        reached.insert("stalled");
                    }
                }
                let to = (pos + n).min(s.trace.len());
                for p in &s.trace[pos..to] {
                    plane.push(p).map_err(at(step, "push"))?;
                }
                pos = to;
            }
            Op::Attach { .. } | Op::Duplicate { .. } | Op::Sharer { .. } => {
                let live: Vec<&Tenant> = live.iter().map(|&t| &tenants[t]).collect();
                let Some((policy, cfg, sinked)) = candidate(op, &live) else {
                    continue;
                };
                let spec = TenantSpec {
                    name: format!("t{}", tenants.len()),
                    policy: dsl::parse(POOL[policy]).expect("pool policy is valid"),
                    cfg,
                };
                let egress = Arc::new(Mutex::new(Vec::new()));
                let (units, groups) = (plane.units(), plane.groups());
                let id = match plane.attach(&spec, sinked.then(|| sinks(workers, &egress))) {
                    Ok(id) => id,
                    // A set past the hardware budget is refused whole.
                    Err(CtrlError::Admission(_)) => continue,
                    Err(e) => return Err(at(step, "attach")(e)),
                };
                let unit = grown(&units, &plane.units()).ok_or(format!("step {step}: no unit"))?;
                let founder = (tenants.iter()).find(|t| t.id == unit);
                let group = match (grown(&groups, &plane.groups()), founder) {
                    (Some(g), _) => g,
                    (None, Some(f)) => f.group,
                    (None, None) => return Err(format!("step {step}: {id} joined no unit")),
                };
                let sharer = |t: &Tenant| {
                    t.live() && PREFIX[t.policy] == PREFIX[policy] && t.spec.cfg == spec.cfg
                };
                if (tenants.iter()).any(|t| sharer(t) && t.from < pos) {
                    // A candidate the position gate must keep apart.
                    let after_restore = step > 0 && matches!(s.ops[step - 1], Op::Restore);
                    reached.insert(if after_restore {
                        "late sharer on a restored plane"
                    } else {
                        "late sharer"
                    });
                }
                tenants.push(Tenant {
                    id,
                    policy,
                    sinks: sinked,
                    from: pos,
                    to: None,
                    budget,
                    unit,
                    group,
                    scored_at: None,
                    scored_shared: false,
                    restored: false,
                    egress_before: Vec::new(),
                    egress,
                    out: None,
                    spec,
                });
                let (units, groups) = (plane.units(), plane.groups());
                if units.iter().any(|&(_, n)| n > 1) {
                    reached.insert("fused");
                }
                if groups.iter().any(|&(_, n)| n > 1) {
                    reached.insert("prefix-shared");
                }
                if groups.len() > 1 {
                    reached.insert("disjoint partitions");
                }
            }
            Op::Detach(n) => {
                let Some(&t) = live.get(n % live.len().max(1)) else {
                    continue;
                };
                let (units, groups) = (plane.units(), plane.groups());
                let id = tenants[t].id;
                tenants[t].out = Some(plane.detach(id).map_err(at(step, "detach"))?);
                tenants[t].to = Some(pos);
                let (units_after, groups_after) = (plane.units(), plane.groups());
                if units_after.len() == units.len() {
                    reached.insert("fused member detached");
                } else if groups_after.len() == groups.len() {
                    reached.insert("prefix unit detached");
                }
                let keeps = |ids: &[(TenantId, usize)]| ids.iter().any(|&(u, _)| u == id);
                if keeps(&units_after) || keeps(&groups_after) {
                    reached.insert("founder detached");
                }
            }
            Op::Score(n) => {
                let unscored: Vec<usize> = (live.iter().copied())
                    .filter(|&t| tenants[t].scored_at.is_none())
                    .collect();
                let Some(&t) = unscored.get(n % unscored.len().max(1)) else {
                    continue;
                };
                (plane.score_with(tenants[t].id, detector())).map_err(at(step, "score_with"))?;
                let (unit, group) = (tenants[t].unit, tenants[t].group);
                let shares = |o: &Tenant| o.live() && (o.unit == unit || o.group == group);
                tenants[t].scored_shared = tenants.iter().filter(|o| shares(o)).count() > 1;
                tenants[t].scored_at = Some(pos);
            }
            Op::Budget(b) => {
                plane.set_table_budget(b);
                budget = b;
            }
            Op::Restore => {
                let bytes = plane.snapshot().map_err(at(step, "snapshot"))?;
                let (units, groups) = (plane.units(), plane.groups());
                for &t in &live {
                    let cut = std::mem::take(&mut *tenants[t].egress.lock().unwrap());
                    tenants[t].egress_before.extend(cut);
                    tenants[t].egress = Arc::new(Mutex::new(Vec::new()));
                    tenants[t].restored = true;
                }
                plane
                    .finish()
                    .map_err(at(step, "finish the snapshotted plane"))?;
                let specs: Vec<TenantSpec> =
                    live.iter().map(|&t| tenants[t].spec.clone()).collect();
                let given = |name: &str| {
                    let t = tenants.iter().find(|t| t.spec.name == name)?;
                    t.sinks.then(|| sinks(workers, &t.egress))
                };
                plane = CtrlPlane::restore(AnalyzeConfig::default(), &specs, &bytes, given)
                    .map_err(at(step, "restore"))?;
                // The plane's budget and detectors are the caller's to give
                // again.
                plane.set_table_budget(budget);
                for &t in &live {
                    if tenants[t].scored_at.is_some() {
                        let id = tenants[t].id;
                        (plane.score_with(id, detector())).map_err(at(step, "re-score"))?;
                        tenants[t].scored_at = Some(pos);
                    }
                }
                // A unit is re-seated onto its first surviving member, a
                // partition onto its first surviving unit; the shape stays.
                let members = |u| members(&tenants, &live, u);
                let unit_seat: Vec<(TenantId, TenantId)> = (units.iter())
                    .map(|&(u, _)| (u, members(u).map(|t| t.id).min().unwrap_or(u)))
                    .collect();
                let group_seat: Vec<(TenantId, TenantId)> = (groups.iter())
                    .map(|&(g, _)| {
                        let first =
                            (unit_seat.iter()).find(|&&(u, _)| members(u).any(|t| t.group == g));
                        (g, first.map_or(g, |&(_, seat)| seat))
                    })
                    .collect();
                let seat = |map: &[(TenantId, TenantId)], old| {
                    map.iter()
                        .find(|&&(o, _)| o == old)
                        .map_or(old, |&(_, new)| new)
                };
                let unit_ids: Vec<_> = (units.iter())
                    .map(|&(u, n)| (seat(&unit_seat, u), n))
                    .collect();
                let group_ids: Vec<_> = (groups.iter())
                    .map(|&(g, n)| (seat(&group_seat, g), n))
                    .collect();
                if (plane.units(), plane.groups()) != (unit_ids, group_ids) {
                    return Err(format!(
                        "step {step}: restore changed the topology: units {:?} groups {:?}, \
                         saved as {units:?} {groups:?}",
                        plane.units(),
                        plane.groups()
                    ));
                }
                let order: Vec<TenantId> = (units.iter())
                    .flat_map(|&(u, _)| members(u))
                    .map(|t| t.id)
                    .collect();
                for &t in &live {
                    tenants[t].unit = seat(&unit_seat, tenants[t].unit);
                    tenants[t].group = seat(&group_seat, tenants[t].group);
                }
                if live.len() > 1 {
                    reached.insert("restored");
                }
                if units.iter().any(|&(_, n)| n > 1) && groups.iter().any(|&(_, n)| n > 1) {
                    reached.insert("restored with fusion and prefix sharing");
                }
                if order.windows(2).any(|w| w[0] > w[1]) {
                    reached.insert("restored out of attach order");
                }
                if (tenants.iter()).any(|t| !t.live() && units.iter().any(|&(u, _)| u == t.id)) {
                    reached.insert("restored after founder detach");
                }
            }
        }
    }
    for p in &s.trace[pos..] {
        plane.push(p).map_err(at(s.ops.len(), "push"))?;
    }
    let runs = plane.finish().map_err(at(s.ops.len(), "finish"))?;
    let ids: Vec<TenantId> = runs.iter().map(|r| r.id).collect();
    if ids.windows(2).any(|w| w[0] >= w[1]) {
        return Err(format!("finish returned tenants out of id order: {ids:?}"));
    }
    for run in runs {
        let t = (tenants.iter_mut())
            .find(|t| t.id == run.id && t.live())
            .ok_or(format!("finish returned {}, which is not live", run.id))?;
        if run.name != t.spec.name {
            return Err(format!("{} finished as {}", t.spec.name, run.name));
        }
        t.out = Some(run.output);
    }
    // Tenants alike in everything the solo run reads share one.
    let solo_of = |t: &Tenant| {
        (
            t.policy,
            t.spec.cfg,
            t.from,
            t.to,
            t.budget,
            t.scored_at,
            t.sinks,
        )
    };
    let mut solos: Vec<(usize, (StreamOutput, Vec<Egress>))> = Vec::new();
    for (i, t) in tenants.iter().enumerate() {
        let known = solos
            .iter()
            .position(|&(j, _)| solo_of(&tenants[j]) == solo_of(t));
        let at = known.unwrap_or_else(|| {
            solos.push((i, solo(t, s)));
            solos.len() - 1
        });
        check_solo(t, &solos[at].1, s, &mut reached)?;
    }
    Ok(reached)
}

/// `t` alone over its window, on a data path of its own under the budget
/// set before its attach, with its detector given at the same point of its window and its
/// sinks if it had them: its output and its egress.
fn solo(t: &Tenant, s: &Schedule) -> (StreamOutput, Vec<Egress>) {
    const SOLO: TenantId = TenantId(0);
    let window = &s.trace[t.from..t.to.unwrap_or(s.trace.len())];
    let compiled = gate(&t.spec.policy, &t.spec.cfg).expect("pool policy deploys");
    let egress = Arc::new(Mutex::new(Vec::new()));
    let mut path = DataPath::new(s.workers);
    path.nic_mut().set_table_budget(t.budget);
    let given = t.sinks.then(|| sinks(s.workers, &egress));
    (path.attach(SOLO, &compiled, &t.spec.cfg, given)).expect("solo attach");
    let score = |path: &mut DataPath| path.nic_mut().score_with(SOLO, detector()).unwrap();
    for (i, p) in window.iter().enumerate() {
        if t.scored_at == Some(t.from + i) {
            score(&mut path);
        }
        path.push(p).expect("workers alive");
    }
    if t.scored_at == Some(t.from + window.len()) {
        score(&mut path);
    }
    let (mut outs, _) = path.finish().expect("workers alive");
    let mut all = egress.lock().unwrap().clone();
    all.sort();
    (outs.pop().expect("the solo unit").1, all)
}

/// Holds `t`'s output to its solo run's, field by field.
fn check_solo(
    t: &Tenant,
    (want, want_egress): &(StreamOutput, Vec<Egress>),
    s: &Schedule,
    reached: &mut BTreeSet<&'static str>,
) -> Result<(), String> {
    let got = t
        .out
        .as_ref()
        .ok_or(format!("{} has no output", t.spec.name))?;
    let egress = t.egress();
    let diverged = if got.group_vectors != want.group_vectors {
        "group vectors"
    } else if got.packet_vectors != want.packet_vectors {
        "packet vectors"
    } else if got.evicted_vectors != want.evicted_vectors {
        "evicted vectors"
    } else if format!("{:?}", got.inline_alerts) != format!("{:?}", want.inline_alerts)
        || got.inline_stats != want.inline_stats
    {
        "alerts"
    } else if egress != *want_egress {
        "sink egress"
    } else {
        ""
    };
    if !diverged.is_empty() {
        let (name, policy) = (&t.spec.name, t.policy);
        return Err(format!(
            "{name} (pool {policy}, packets {}..{:?}) at {} workers: {diverged} diverged \
             from its solo run",
            t.from, t.to, s.workers
        ));
    }
    if t.restored && t.spec.cfg != SuperFeConfig::default() {
        reached.insert("tight cache across a restore");
    }
    if !got.evicted_vectors.is_empty() {
        reached.insert("budget evicted");
        if t.restored {
            reached.insert("restored under a budget that evicts");
        }
    }
    if !got.inline_alerts.is_empty() {
        reached.insert("alerts raised");
        if t.scored_shared {
            reached.insert("alerts on a shared unit or partition");
        }
    }
    if !egress.is_empty() {
        reached.insert("sink egress");
        if t.restored {
            reached.insert("sink egress across a restore");
        }
    }
    Ok(())
}
