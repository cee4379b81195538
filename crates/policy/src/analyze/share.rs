//! The sharing lattice: one canonical form, one certifier and one class
//! builder behind both cross-tenant sharing reports — SF07xx plan fusion
//! and SF08xx shared-prefix CSE.
//!
//! Each policy's typed IR is decomposed into a canonical **stage-prefix
//! lattice**
//!
//! ```text
//! parse → groupby key → filter conjunct set → map chain → reduce tail
//! ```
//!
//! under provenance-based canonical hashing: a deterministic 64-bit hash
//! per op that is invariant under every rewrite that provably cannot change
//! the emitted feature vectors — alpha-renaming of `map` destinations
//! (names are replaced by the *provenance* of the value: the chain of
//! mapping functions back to a builtin field), reordering of `filter`
//! predicates (a sorted, deduplicated conjunct set), reordering and dead
//! `map` operators (maps fold into provenance and enter the lattice only
//! as the sources the reduce tail reads) — and sensitive to everything
//! that can: reducer functions and their parameters, *reduce order* (it
//! fixes the feature-vector layout), granularity chains, collect units,
//! synthesizers, comparison constants, and the deployment [`ValueConfig`]
//! (batch size, aging window and accumulator width seed the parse op,
//! because the same syntax deployed against a different aging window
//! accumulates different values). A running hash over the ops gives every
//! prefix length a stable identity.
//!
//! Two depths of the lattice are executable:
//!
//! - the **switch prefix** ([`PrefixForm::switch_prefix`]) — parse, the
//!   full granularity chain and the filter conjunct set. That is exactly
//!   the computation the switch half performs (filtering, grouping, and the
//!   MGPV cache), and the cache's event stream — record content *and*
//!   eviction timing — is fully determined by it: two policies with equal
//!   switch prefixes can share one switch partition, with per-tenant
//!   map/reduce tails running on the NIC against the shared group-tagged
//!   event stream (SF08xx).
//! - the **whole lattice** ([`PrefixForm::full`]) — two policies that agree
//!   at full depth are the same program and run as one extraction plan,
//!   with per-tenant demux only at the vector sink (SF07xx). Fusion is
//!   prefix sharing at full depth; anything between the two depths is
//!   *reported* as a near-miss but never executed shared.
//!
//! Sharing is **certified**, never assumed ([`certify`]): op-for-op hash
//! equality to the requested depth, then the SF05xx interval analysis on
//! both sides — bitwise agreement on every builtin field's proven bounds at
//! the groupby boundary and on the finding codes attributable to the
//! shared ops, plus, at full depth, on every aligned reducer's value type,
//! function list, proven input interval and on all SF05xx finding codes.
//!
//! Findings ([`analyze_sharing`]; the two code ranges are reporting
//! aliases over the one pass):
//! - `SF0701`: a class of policies equal at full depth (one shared plan).
//! - `SF0702`: two plans that share a component — the filter set or a
//!   whole level program — but cannot fuse, with the blocking reason.
//! - `SF0801`: a certified shared switch prefix, with the per-stage op list.
//! - `SF0802`: a near-miss — the first divergent op and which
//!   constant/field broke sharing.
//! - `SF0803`: the estimated switch/NIC demand saving, priced by the
//!   SF06xx cost model.

use std::fmt;
use std::fmt::Write as _;

use superfe_net::Granularity;

use superfe_streaming::transfer::Interval;

use super::values::{self, ValueAnalysis, ValueConfig};
use super::{codes, cost, AnalysisReport, Diagnostic};
use crate::ast::{CollectUnit, Field, MapFn, Operator, Policy, Predicate, ReduceFn, SynthFn};
use crate::ir::{lower, IrOp, PolicyIr, ValueTy, ValueUnit};

// --- deterministic hashing ------------------------------------------------

/// FNV-1a, 64-bit: deterministic across runs and platforms (no
/// `DefaultHasher` seeding, no pointer or map-iteration-order inputs).
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// A hasher that has consumed the domain-separating `tag`.
    fn tagged(tag: u8) -> Self {
        let mut h = Fnv::new();
        h.tag(tag);
        h
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn tag(&mut self, t: u8) {
        self.byte(t);
    }

    fn finish(self) -> u64 {
        self.0
    }
}

fn granularity_tag(g: Granularity) -> u8 {
    match g {
        Granularity::Flow => 0,
        Granularity::Host => 1,
        Granularity::Channel => 2,
        Granularity::Socket => 3,
    }
}

fn value_ty_hash(h: &mut Fnv, ty: ValueTy) {
    h.tag(match ty.unit {
        ValueUnit::Bytes => 0,
        ValueUnit::TimeNs => 1,
        ValueUnit::Rate => 2,
        ValueUnit::Count => 3,
        ValueUnit::Flag => 4,
        ValueUnit::Ident => 5,
        ValueUnit::Scalar => 6,
    });
    h.tag(u8::from(ty.signed));
}

fn reduce_fn_hash(h: &mut Fnv, f: &ReduceFn) {
    match f {
        ReduceFn::Sum => h.tag(0),
        ReduceFn::Mean => h.tag(1),
        ReduceFn::Var => h.tag(2),
        ReduceFn::Std => h.tag(3),
        ReduceFn::Max => h.tag(4),
        ReduceFn::Min => h.tag(5),
        ReduceFn::Kur => h.tag(6),
        ReduceFn::Skew => h.tag(7),
        ReduceFn::Mag => h.tag(8),
        ReduceFn::Radius => h.tag(9),
        ReduceFn::Cov => h.tag(10),
        ReduceFn::Pcc => h.tag(11),
        ReduceFn::Card { k } => {
            h.tag(12);
            h.u64(u64::from(*k));
        }
        ReduceFn::Array { cap } => {
            h.tag(13);
            h.usize(*cap);
        }
        ReduceFn::Pdf { width, bins } => {
            h.tag(14);
            h.f64(*width);
            h.usize(*bins);
        }
        ReduceFn::Cdf { width, bins } => {
            h.tag(15);
            h.f64(*width);
            h.usize(*bins);
        }
        ReduceFn::Hist { width, bins } => {
            h.tag(16);
            h.f64(*width);
            h.usize(*bins);
        }
        ReduceFn::Percent { width, bins, q } => {
            h.tag(17);
            h.f64(*width);
            h.usize(*bins);
            h.f64(*q);
        }
        ReduceFn::HistLog { unit, base, bins } => {
            h.tag(18);
            h.f64(*unit);
            h.f64(*base);
            h.usize(*bins);
        }
        ReduceFn::Damped { lambda } => {
            h.tag(19);
            h.f64(*lambda);
        }
        ReduceFn::Damped2d { lambda } => {
            h.tag(20);
            h.f64(*lambda);
        }
    }
}

fn synth_fn_hash(h: &mut Fnv, f: SynthFn) {
    match f {
        SynthFn::Marker => h.tag(0),
        SynthFn::Norm => h.tag(1),
        SynthFn::Sample { n } => {
            h.tag(2);
            h.usize(n);
        }
    }
}

// --- provenance -----------------------------------------------------------

/// The provenance environment: for every field in scope, a hash of *how
/// its value is computed* — builtin fields by identity, mapped fields by
/// `hash(func, provenance(src))` — beside a rendering of the same chain
/// (`f_ipt(tstamp)`) for findings. Names never enter either, which is what
/// makes the canonical form alpha-renaming-invariant: `map(a, size,
/// f_direction)` and `map(dsize, size, f_direction)` produce the same
/// provenance for their destination.
struct Provenance(Vec<(Field, u64, String)>);

impl Provenance {
    /// Provenance hash and name-free rendering of `field`.
    fn of(&self, field: &Field) -> (u64, String) {
        let builtin = match field {
            Field::SrcIp => 0,
            Field::DstIp => 1,
            Field::SrcPort => 2,
            Field::DstPort => 3,
            Field::Proto => 4,
            Field::Size => 5,
            Field::Tstamp => 6,
            Field::Direction => 7,
            Field::TcpFlags => 8,
            Field::Named(name) => {
                if let Some((_, h, d)) = self.0.iter().rev().find(|(f, ..)| f == field) {
                    return (*h, d.clone());
                }
                // Undefined named field: the structural analyzer rejects
                // the policy (SF0111); hash all undefineds alike so the
                // rejection stays the single source of truth. The `_`
                // placeholder is a source by itself (`f_one(_)`).
                let desc = if name == "_" { "_" } else { "?" };
                return (Fnv::tagged(0xfe).finish(), desc.to_string());
            }
        };
        let mut h = Fnv::tagged(0xb0);
        h.tag(builtin);
        (h.finish(), field.name())
    }

    /// Binds `dst` to `func(src)`.
    fn define(&mut self, dst: &Field, func: MapFn, src: &Field) {
        let (src_hash, src_desc) = self.of(src);
        let mut h = Fnv::tagged(0xa0);
        h.tag(func as u8);
        h.u64(src_hash);
        let desc = format!("{}({src_desc})", func.name());
        self.0.push((dst.clone(), h.finish(), desc));
    }
}

// --- predicates -----------------------------------------------------------

/// Canonical hash of a predicate: `And`/`Or` chains are flattened and
/// their children combined order-insensitively, so `a && b` hashes equal
/// to `b && a` (conjunction is commutative and side-effect-free).
fn predicate_hash(pred: &Predicate, prov: &Provenance) -> u64 {
    match pred {
        Predicate::TcpExists => Fnv::tagged(1).finish(),
        Predicate::UdpExists => Fnv::tagged(2).finish(),
        Predicate::Cmp { field, op, value } => {
            let mut h = Fnv::tagged(3);
            h.u64(prov.of(field).0);
            h.tag(*op as u8);
            h.u64(*value);
            h.finish()
        }
        Predicate::And(..) => {
            let mut kids = Vec::new();
            flatten(pred, true, prov, &mut kids);
            combine_sorted(4, kids)
        }
        Predicate::Or(..) => {
            let mut kids = Vec::new();
            flatten(pred, false, prov, &mut kids);
            combine_sorted(5, kids)
        }
        Predicate::Not(p) => {
            let mut h = Fnv::tagged(6);
            h.u64(predicate_hash(p, prov));
            h.finish()
        }
    }
}

/// Collects the flattened children of an associative `And`/`Or` chain.
fn flatten(pred: &Predicate, conj: bool, prov: &Provenance, out: &mut Vec<u64>) {
    match (pred, conj) {
        (Predicate::And(a, b), true) | (Predicate::Or(a, b), false) => {
            flatten(a, conj, prov, out);
            flatten(b, conj, prov, out);
        }
        _ => out.push(predicate_hash(pred, prov)),
    }
}

/// Order-insensitive combination: sort, dedupe (idempotence), then fold.
fn combine_sorted(tag: u8, mut hashes: Vec<u64>) -> u64 {
    hashes.sort_unstable();
    hashes.dedup();
    let mut h = Fnv::tagged(tag);
    for k in hashes {
        h.u64(k);
    }
    h.finish()
}

// --- the stage lattice ------------------------------------------------------

/// The stage a canonical op belongs to, in lattice order. Ops of earlier
/// stages always precede ops of later stages in a [`PrefixForm`]; the
/// switch/NIC boundary sits after the last [`Stage::Filter`] op.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// The parse stage: deployment value configuration (batch size, aging
    /// window, accumulator width) that seeds every downstream hash.
    Parse,
    /// The groupby key: the full granularity chain configuring the MGPV
    /// cache.
    GroupBy,
    /// The filter conjunct set (order-insensitive, deduplicated).
    Filter,
    /// The map chain: provenance of every non-builtin reduce source, in
    /// order of first use.
    Map,
    /// The reduce tail: reduces, synthesizers, and collect units in program
    /// order (order-sensitive — it fixes the feature-vector layout).
    Reduce,
}

impl Stage {
    /// Human-readable stage name used in findings and JSON renderings.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::GroupBy => "groupby key",
            Stage::Filter => "filter set",
            Stage::Map => "map chain",
            Stage::Reduce => "reduce tail",
        }
    }
}

/// One canonical op in the stage-prefix lattice: its stage, a
/// deterministic 64-bit canonical hash, and a name-free rendering for
/// findings (alpha-renaming must not change a form, so descriptions spell
/// provenance — `f_ipt(tstamp)` — rather than destination names).
#[derive(Clone, Debug, PartialEq)]
pub struct PrefixOp {
    /// Lattice stage.
    pub stage: Stage,
    /// Canonical hash of this op (stage-tagged, deterministic across runs).
    pub hash: u64,
    /// Name-free rendering for reports.
    pub desc: String,
}

/// The canonical stage-prefix lattice of one policy under a deployment
/// configuration — the only canonical form: [`PrefixForm::full`] is the
/// policy's plan identity, [`PrefixForm::switch_prefix`] its partition
/// identity.
#[derive(Clone, Debug, PartialEq)]
pub struct PrefixForm {
    /// Canonical ops in lattice order (parse first; never empty).
    pub ops: Vec<PrefixOp>,
    /// Number of leading ops on the switch side of the boundary (parse +
    /// groupby chain + filter set).
    pub switch_ops: usize,
    /// Running hash over the switch prefix: two policies with equal
    /// `switch_prefix` can share one switch partition.
    pub switch_prefix: u64,
    /// Running hash over all of `ops`.
    full: u64,
    /// Per-level `(granularity, level-program hash)` in chain order. The
    /// program hash covers the level's reduce-tail ops *without* their
    /// position in the chain, so near-miss reporting can recognise the
    /// same level program at different depths of two policies.
    pub levels: Vec<(Granularity, u64)>,
}

impl PrefixForm {
    /// Hash of the whole lattice: two policies with equal `full()` are the
    /// same extraction plan.
    pub fn full(&self) -> u64 {
        self.full
    }

    /// Number of leading ops shared with `other`.
    pub fn shared_depth(&self, other: &PrefixForm) -> usize {
        self.ops
            .iter()
            .zip(&other.ops)
            .take_while(|(a, b)| a.hash == b.hash)
            .count()
    }

    /// Whether both forms carry the same filter conjunct set.
    fn same_filters(&self, other: &PrefixForm) -> bool {
        let filters = |f: &PrefixForm| -> Vec<u64> {
            let switch = f.ops[..f.switch_ops].iter();
            switch
                .filter(|o| o.stage == Stage::Filter)
                .map(|o| o.hash)
                .collect()
        };
        filters(self) == filters(other)
    }

    /// Components two non-fusible plans have in common, as rendered names
    /// ("filter set", "level 2 (Host)") — the shared subplans an `SF0702`
    /// near-miss finding names.
    fn shared_components(&self, other: &PrefixForm) -> Vec<String> {
        let mut shared = Vec::new();
        if self.same_filters(other) {
            shared.push("filter set".to_string());
        }
        for (i, level) in self.levels.iter().enumerate() {
            if other.levels.contains(level) {
                shared.push(format!("level {} ({:?})", i + 1, level.0));
            }
        }
        shared
    }

    /// The first component that differs — the blocking reason an `SF0702`
    /// near-miss finding reports.
    fn first_difference(&self, other: &PrefixForm) -> String {
        if !self.same_filters(other) {
            return "filter sets differ".to_string();
        }
        if self.levels.len() != other.levels.len() {
            return format!(
                "grouping depth differs ({} vs {} levels)",
                self.levels.len(),
                other.levels.len()
            );
        }
        for (i, ((ga, ha), (gb, hb))) in self.levels.iter().zip(&other.levels).enumerate() {
            if ga != gb {
                return format!("level {} granularity differs ({ga:?} vs {gb:?})", i + 1);
            }
            if ha != hb {
                return format!("level {} ({ga:?}) programs differ", i + 1);
            }
        }
        "deployment value configuration differs".to_string()
    }
}

fn gran_str(g: Granularity) -> &'static str {
    match g {
        Granularity::Flow => "flow",
        Granularity::Host => "host",
        Granularity::Channel => "channel",
        Granularity::Socket => "socket",
    }
}

/// Renders a predicate without consulting field definitions — filters run
/// before `groupby`, where only builtin fields are structurally legal, so
/// names here are canonical already.
fn pred_str(p: &Predicate) -> String {
    match p {
        Predicate::TcpExists => "tcp.exist".to_string(),
        Predicate::UdpExists => "udp.exist".to_string(),
        Predicate::Cmp { field, op, value } => {
            format!("{} {} {}", field.name(), op.symbol(), value)
        }
        Predicate::And(a, b) => format!("({} && {})", pred_str(a), pred_str(b)),
        Predicate::Or(a, b) => format!("({} || {})", pred_str(a), pred_str(b)),
        Predicate::Not(p) => format!("!{}", pred_str(p)),
    }
}

/// Flattens an `And` chain into its conjuncts.
fn flatten_conjuncts<'a>(pred: &'a Predicate, out: &mut Vec<&'a Predicate>) {
    if let Predicate::And(a, b) = pred {
        flatten_conjuncts(a, out);
        flatten_conjuncts(b, out);
    } else {
        out.push(pred);
    }
}

fn synth_str(f: SynthFn) -> String {
    match f {
        SynthFn::Sample { n } => format!("ft_sample{{{n}}}"),
        other => other.name().to_string(),
    }
}

/// Computes the canonical stage-prefix lattice of `policy` under `cfg` —
/// the one function in the tree that builds a canonical form.
///
/// Deterministic across runs and platforms, invariant under alpha-renaming,
/// filter-conjunct reordering and reordered or dead maps, sensitive to
/// comparison constants, granularity chains, reducer functions and *reduce
/// order*, and the deployment configuration.
pub fn prefix_form(policy: &Policy, cfg: &ValueConfig) -> PrefixForm {
    let ir = lower(policy);
    let mut prov = Provenance(Vec::new());

    // Parse op: the deployment parameters every downstream value depends on.
    // Two syntactically identical policies deployed with different batch
    // sizes or aging windows accumulate different values and must not share.
    let mut seed = Fnv::tagged(0x01);
    seed.u64(cfg.group_packets);
    seed.u64(cfg.aging_t_ns);
    seed.u64(u64::from(cfg.acc_bits));
    let parse = PrefixOp {
        stage: Stage::Parse,
        hash: seed.finish(),
        desc: format!(
            "parse pktstream (batch {} pkt, aging {} ms, {}-bit accumulators)",
            cfg.group_packets,
            cfg.aging_t_ns / 1_000_000,
            cfg.acc_bits
        ),
    };

    let mut key_ops: Vec<PrefixOp> = Vec::new();
    let mut filter_ops: Vec<PrefixOp> = Vec::new();
    let mut map_ops: Vec<PrefixOp> = Vec::new();
    let mut tail_ops: Vec<PrefixOp> = Vec::new();
    let mut programs: Vec<(Granularity, Fnv)> = Vec::new();

    for node in &ir.nodes {
        // The reduce-tail ops share a shape: a tag, the op's own content
        // (`body`, position-free) and a rendering.
        let (tag, body, desc) = match &node.op {
            IrOp::Filter { pred } => {
                let mut kids = Vec::new();
                flatten_conjuncts(pred, &mut kids);
                for kid in kids {
                    let mut h = Fnv::tagged(0x02);
                    h.u64(predicate_hash(kid, &prov));
                    filter_ops.push(PrefixOp {
                        stage: Stage::Filter,
                        hash: h.finish(),
                        desc: format!("filter {}", pred_str(kid)),
                    });
                }
                continue;
            }
            IrOp::Map { dst, src, func, .. } => {
                // Maps fold into provenance and are never lattice ops
                // themselves: reordered and dead maps are invisible.
                prov.define(dst, *func, src);
                continue;
            }
            IrOp::GroupBy { granularity } => {
                let mut h = Fnv::tagged(0x10);
                h.tag(granularity_tag(*granularity));
                key_ops.push(PrefixOp {
                    stage: Stage::GroupBy,
                    hash: h.finish(),
                    desc: format!("groupby({})", gran_str(*granularity)),
                });
                programs.push((*granularity, Fnv::new()));
                continue;
            }
            IrOp::Reduce { src, funcs, src_ty } => {
                let (src_hash, src_desc) = prov.of(src);
                // The map chain behind a non-builtin source is a Map-stage
                // op, once per distinct provenance, in order of first use.
                if !src.is_builtin() {
                    let mut h = Fnv::tagged(0x03);
                    h.u64(src_hash);
                    let hash = h.finish();
                    if !map_ops.iter().any(|o| o.hash == hash) {
                        map_ops.push(PrefixOp {
                            stage: Stage::Map,
                            hash,
                            desc: format!("map {src_desc}"),
                        });
                    }
                }
                let mut body = Fnv::new();
                body.u64(src_hash);
                value_ty_hash(&mut body, *src_ty);
                // Reduce *order* stays sequence-sensitive: it fixes the
                // feature-vector layout, so swapping two reduces is not
                // output-preserving.
                body.usize(funcs.len());
                for f in funcs {
                    reduce_fn_hash(&mut body, f);
                }
                let names: Vec<&str> = funcs.iter().map(ReduceFn::name).collect();
                let desc = format!("reduce [{}] over {src_desc}", names.join(", "));
                (0x20, body, desc)
            }
            IrOp::Synthesize { func } => {
                let mut body = Fnv::new();
                synth_fn_hash(&mut body, *func);
                (0x30, body, format!("synthesize {}", synth_str(*func)))
            }
            IrOp::Collect { unit } => match unit {
                CollectUnit::Pkt => (0x40, Fnv::tagged(0), "collect(pkt)".to_string()),
                CollectUnit::Group(g) => {
                    let mut body = Fnv::tagged(1);
                    body.tag(granularity_tag(*g));
                    (0x40, body, format!("collect({})", gran_str(*g)))
                }
            },
        };
        // The body folds into its level's program hash and, tagged with the
        // level, becomes the op's lattice hash — the lattice is flat, so
        // without the level a reduce could slide across a `groupby`
        // unnoticed.
        let body = body.finish();
        if let Some((_, program)) = programs.last_mut() {
            program.tag(tag);
            program.u64(body);
        }
        let mut h = Fnv::tagged(tag);
        h.usize(node.level);
        h.u64(body);
        tail_ops.push(PrefixOp {
            stage: Stage::Reduce,
            hash: h.finish(),
            desc,
        });
    }

    // The filter conjunct set is order-insensitive: sort by canonical hash
    // and dedupe (idempotence), mirroring [`combine_sorted`].
    filter_ops.sort_by_key(|op| op.hash);
    filter_ops.dedup_by(|a, b| a.hash == b.hash);

    let mut ops =
        Vec::with_capacity(1 + key_ops.len() + filter_ops.len() + map_ops.len() + tail_ops.len());
    ops.push(parse);
    ops.extend(key_ops);
    ops.extend(filter_ops);
    let switch_ops = ops.len();
    ops.extend(map_ops);
    ops.extend(tail_ops);

    // A running hash gives every prefix length a stable identity; the two
    // executable depths are kept.
    let mut run = Fnv::new();
    let mut switch_prefix = 0;
    for (i, op) in ops.iter().enumerate() {
        run.u64(op.hash);
        if i + 1 == switch_ops {
            switch_prefix = run.finish();
        }
    }

    PrefixForm {
        full: run.finish(),
        ops,
        switch_ops,
        switch_prefix,
        levels: programs
            .into_iter()
            .map(|(g, program)| (g, program.finish()))
            .collect(),
    }
}

// --- divergence -------------------------------------------------------------

/// The first point where two stage-prefix lattices disagree: the stage, the
/// op index into the lattice, and the culprit ops rendered side by side —
/// the structured diff behind `SF0702`/`SF0802` near-miss findings.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Lattice stage of the divergent op.
    pub stage: Stage,
    /// Index of the divergent op in the lattice.
    pub op_index: usize,
    /// The two sides rendered — which constant/field/function broke sharing.
    pub culprit: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} op {}: {}",
            self.stage.label(),
            self.op_index,
            self.culprit
        )
    }
}

/// Finds the first divergent op between two lattices; `None` when they are
/// identical.
pub fn first_divergence(a: &PrefixForm, b: &PrefixForm) -> Option<Divergence> {
    let n = a.ops.len().min(b.ops.len());
    for i in 0..n {
        if a.ops[i].hash != b.ops[i].hash {
            // The filter conjunct set is order-insensitive (sorted by
            // hash), so positional pairing is arbitrary there — report the
            // set difference instead of the positional pair.
            let culprit = if a.ops[i].stage == Stage::Filter && b.ops[i].stage == Stage::Filter {
                let only = |x: &PrefixForm, y: &PrefixForm| {
                    let descs: Vec<&str> = x
                        .ops
                        .iter()
                        .filter(|o| {
                            o.stage == Stage::Filter && !y.ops.iter().any(|p| p.hash == o.hash)
                        })
                        .map(|o| o.desc.as_str())
                        .collect();
                    if descs.is_empty() {
                        "(none)".to_string()
                    } else {
                        descs.join(" & ")
                    }
                };
                format!("'{}' vs '{}'", only(a, b), only(b, a))
            } else if a.ops[i].desc == b.ops[i].desc {
                format!("'{}' (semantics differ)", a.ops[i].desc)
            } else {
                format!("'{}' vs '{}'", a.ops[i].desc, b.ops[i].desc)
            };
            return Some(Divergence {
                stage: a.ops[i].stage,
                op_index: i,
                culprit,
            });
        }
    }
    if a.ops.len() > b.ops.len() {
        return Some(Divergence {
            stage: a.ops[n].stage,
            op_index: n,
            culprit: format!("'{}' vs end of policy", a.ops[n].desc),
        });
    }
    if b.ops.len() > a.ops.len() {
        return Some(Divergence {
            stage: b.ops[n].stage,
            op_index: n,
            culprit: format!("end of policy vs '{}'", b.ops[n].desc),
        });
    }
    None
}

// --- semantic certification -------------------------------------------------

const BUILTIN_FIELDS: [Field; 9] = [
    Field::SrcIp,
    Field::DstIp,
    Field::SrcPort,
    Field::DstPort,
    Field::Proto,
    Field::Size,
    Field::Tstamp,
    Field::Direction,
    Field::TcpFlags,
];

/// How deep into the lattice two policies must provably agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Depth {
    /// Up to the switch boundary: the pair may share one switch partition.
    Switch,
    /// The whole lattice: the pair may run as one extraction plan.
    Full,
}

/// One side of a certificate: a policy with its SF05xx facts.
struct Facts<'a> {
    policy: &'a Policy,
    ir: PolicyIr,
    values: ValueAnalysis,
    findings: Vec<Diagnostic>,
}

impl<'a> Facts<'a> {
    fn of(policy: &'a Policy, cfg: &ValueConfig) -> Self {
        let ir = lower(policy);
        let values = values::infer(&ir, cfg);
        Facts {
            policy,
            ir,
            values,
            findings: values::check(policy, cfg),
        }
    }

    /// SF05xx finding codes attributable to the shared (switch-side) ops:
    /// diagnostics anchored on a `filter`/`groupby` operator, plus
    /// un-anchored (global) findings, conservatively.
    fn shared_op_codes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .findings
            .iter()
            .filter(|d| match d.op_index {
                Some(i) => matches!(
                    self.policy.ops.get(i),
                    Some(Operator::Filter(_)) | Some(Operator::GroupBy(_))
                ),
                None => true,
            })
            .map(|d| d.code)
            .collect();
        out.sort_unstable();
        out
    }

    /// Every SF05xx finding code: the policy's saturation behavior.
    fn codes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.findings.iter().map(|d| d.code).collect();
        out.sort_unstable();
        out
    }

    /// Indices of the observable (reduce) nodes.
    fn reduce_nodes(&self) -> Vec<usize> {
        self.ir
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| matches!(n.op, IrOp::Reduce { .. }).then_some(i))
            .collect()
    }
}

fn same_interval(a: Interval, b: Interval) -> bool {
    a.lo.to_bits() == b.lo.to_bits() && a.hi.to_bits() == b.hi.to_bits()
}

/// The switch-boundary certificate: bitwise agreement on every builtin
/// field's proven interval at the groupby boundary, and on the finding
/// codes attributable to the shared ops.
fn certify_boundary(a: &Facts, b: &Facts) -> Result<(), String> {
    let boundary = |ir: &PolicyIr| {
        ir.nodes
            .iter()
            .position(|n| matches!(n.op, IrOp::GroupBy { .. }))
            .unwrap_or(ir.nodes.len())
    };
    let (ba, bb) = (boundary(&a.ir), boundary(&b.ir));
    for field in &BUILTIN_FIELDS {
        let ra = a.values.interval_before(ba, field);
        let rb = b.values.interval_before(bb, field);
        if !same_interval(ra, rb) {
            return Err(format!(
                "field '{}' proven ranges at the groupby boundary differ \
                 ([{}, {}] vs [{}, {}])",
                field.name(),
                ra.lo,
                ra.hi,
                rb.lo,
                rb.hi
            ));
        }
    }
    if a.shared_op_codes() != b.shared_op_codes() {
        return Err(format!(
            "findings on the shared prefix differ ({:?} vs {:?})",
            a.shared_op_codes(),
            b.shared_op_codes()
        ));
    }
    Ok(())
}

/// The full-depth certificate on top of [`certify_boundary`]: equal feature
/// dimension, every aligned reducer agreeing on value type, function list
/// and proven input interval, and identical SF05xx finding codes
/// (saturation/overflow behavior).
fn certify_reducers(a: &Facts, b: &Facts) -> Result<(), String> {
    let (dim_a, dim_b) = (a.policy.feature_dimension(), b.policy.feature_dimension());
    if dim_a != dim_b {
        return Err(format!("feature dimensions differ ({dim_a} vs {dim_b})"));
    }
    let (red_a, red_b) = (a.reduce_nodes(), b.reduce_nodes());
    if red_a.len() != red_b.len() {
        return Err(format!(
            "reducer counts differ ({} vs {})",
            red_a.len(),
            red_b.len()
        ));
    }
    for (k, (&ia, &ib)) in red_a.iter().zip(&red_b).enumerate() {
        let (
            IrOp::Reduce {
                src: sa,
                funcs: fa,
                src_ty: ta,
            },
            IrOp::Reduce {
                src: sb,
                funcs: fb,
                src_ty: tb,
            },
        ) = (&a.ir.nodes[ia].op, &b.ir.nodes[ib].op)
        else {
            unreachable!("reduce_nodes returns Reduce indices");
        };
        if ta != tb {
            return Err(format!("reducer {k} value types differ ({ta} vs {tb})"));
        }
        if fa != fb {
            return Err(format!("reducer {k} function lists differ"));
        }
        let ra = a.values.interval_before(ia, sa);
        let rb = b.values.interval_before(ib, sb);
        if !same_interval(ra, rb) {
            return Err(format!(
                "reducer {k} proven value ranges differ ([{}, {}] vs [{}, {}])",
                ra.lo, ra.hi, rb.lo, rb.hi
            ));
        }
    }
    if a.codes() != b.codes() {
        return Err(format!(
            "overflow/saturation findings differ ({:?} vs {:?})",
            a.codes(),
            b.codes()
        ));
    }
    Ok(())
}

/// Decides whether `a` and `b` may legally share to `depth` under `cfg` —
/// the one certifier behind partition sharing and plan fusion.
///
/// Structural layer: the two lattices must be op-for-op hash-equal up to
/// the switch boundary ([`Depth::Switch`]) or over their whole length
/// ([`Depth::Full`]). Semantic layer (defense in depth against hash
/// collisions, and the place where "shared only when proven ranges match"
/// is enforced): the SF05xx abstract interpreter runs on both sides. The
/// switch-boundary certificate always runs; the per-reducer certificate is
/// added only at full depth.
///
/// Returns `Err(reason)` naming the first disagreement.
pub fn certify(a: &Policy, b: &Policy, cfg: &ValueConfig, depth: Depth) -> Result<(), String> {
    let (fa, fb) = (prefix_form(a, cfg), prefix_form(b, cfg));
    let shared = fa.shared_depth(&fb);
    let diverged = |what: &str| {
        let d = first_divergence(&fa, &fb)
            .map(|d| format!("first divergence at {d}"))
            .unwrap_or_else(|| "switch prefix lengths differ".to_string());
        Err(format!("{what} differ: {d}"))
    };
    if fa.switch_ops != fb.switch_ops || shared < fa.switch_ops {
        return diverged("switch prefixes");
    }
    if depth == Depth::Full && (shared < fa.ops.len() || shared < fb.ops.len()) {
        return diverged("plans");
    }
    let (a, b) = (Facts::of(a, cfg), Facts::of(b, cfg));
    certify_boundary(&a, &b)?;
    if depth == Depth::Full {
        certify_reducers(&a, &b)?;
    }
    Ok(())
}

// --- the sharing report -----------------------------------------------------

/// One certified partition class: policies whose switch prefixes are
/// provably interchangeable (singletons included).
#[derive(Clone, Debug)]
pub struct PrefixClass {
    /// Cumulative hash of the shared switch prefix.
    pub prefix: u64,
    /// Member indices into the analyzed policy list, in input order; the
    /// first member is the class representative.
    pub members: Vec<usize>,
    /// Renderings of the shared switch-prefix ops, in lattice order.
    pub ops: Vec<String>,
}

/// One certified plan class: policies proven mutually output-equivalent —
/// a partition class's members that also agree at full depth.
#[derive(Clone, Debug)]
pub struct PlanClass {
    /// The plan hash ([`PrefixForm::full`]) shared by every member.
    pub hash: u64,
    /// Index of the partition class this plan class refines.
    pub partition: usize,
    /// Member indices into the analyzed policy list, in input order; the
    /// first member is the class representative.
    pub members: Vec<usize>,
}

/// One structured plan near-miss: a pair of policies that cannot fuse, with
/// the blocking reason and the first divergent op — the data behind the
/// `SF0702` message, exposed so renderers can emit it as a structured diff
/// instead of re-parsing prose.
#[derive(Clone, Debug)]
pub struct NearMiss {
    /// Index of the first policy in the analyzed list.
    pub a: usize,
    /// Index of the second policy in the analyzed list.
    pub b: usize,
    /// The blocking reason (same text the diagnostic message carries).
    pub reason: String,
    /// First divergent op in the lattice; `None` when the lattices are
    /// identical (a hash-equal pair failing only the semantic certificate).
    pub divergence: Option<Divergence>,
}

/// One structured partition near-miss: the pair of policies and where they
/// diverge.
#[derive(Clone, Debug)]
pub struct ShareNearMiss {
    /// Index of the first policy.
    pub a: usize,
    /// Index of the second policy.
    pub b: usize,
    /// The first divergent op.
    pub divergence: Divergence,
}

/// The result of the sharing analysis over N policies.
#[derive(Clone, Debug)]
pub struct ShareAnalysis {
    /// Stage-prefix lattice of each input policy, in input order.
    pub forms: Vec<PrefixForm>,
    /// Partition classes in order of first appearance; every policy is a
    /// member of exactly one.
    pub partitions: Vec<PrefixClass>,
    /// Plan classes in order of first appearance; every policy is a member
    /// of exactly one, and every plan class lies inside one partition class.
    pub plans: Vec<PlanClass>,
    /// Structured plan near-misses, one per `SF0702` finding, in emission
    /// order.
    pub plan_near_misses: Vec<NearMiss>,
    /// Structured partition near-misses, one per `SF0802` finding, in
    /// emission order.
    pub partition_near_misses: Vec<ShareNearMiss>,
    /// The SF07xx findings: `SF0701` per shared plan, `SF0702` per
    /// near-miss with the blocking reason.
    pub plan_report: AnalysisReport,
    /// The SF08xx findings: `SF0801` + `SF0803` per shared switch prefix,
    /// `SF0802` per near-miss.
    pub partition_report: AnalysisReport,
}

/// `'a', 'b', 'c'` — the member list of a class finding.
fn quoted_names(named: &[(&str, &Policy)], members: &[usize]) -> String {
    let mut names = String::new();
    for (k, &m) in members.iter().enumerate() {
        if k > 0 {
            names.push_str(", ");
        }
        let _ = write!(names, "'{}'", named[m].0);
    }
    names
}

/// Runs the sharing analysis over `named` policies: one pass that places
/// every policy in a partition class and, inside it, a plan class.
///
/// Both kinds of class are certified, never assumed: a candidate joins the
/// first class whose hash it matches — `switch_prefix` for a partition
/// class, `full()` for a plan class within it — only if [`certify`] holds
/// against the class representative at that depth. A hash-equal pair
/// failing certification is split into its own class and reported as an
/// `SF0802` / `SF0702` near-miss naming the semantic reason. Output is
/// deterministic: the same policies in the same order render byte-identical
/// reports.
pub fn analyze_sharing(named: &[(&str, &Policy)], cfg: &ValueConfig) -> ShareAnalysis {
    let forms: Vec<PrefixForm> = named.iter().map(|(_, p)| prefix_form(p, cfg)).collect();
    let mut partitions: Vec<PrefixClass> = Vec::new();
    let mut plans: Vec<PlanClass> = Vec::new();
    let mut plan_near_misses: Vec<NearMiss> = Vec::new();
    let mut partition_near_misses: Vec<ShareNearMiss> = Vec::new();
    let mut plan_report = AnalysisReport::new();
    let mut partition_report = AnalysisReport::new();

    for (i, form) in forms.iter().enumerate() {
        let mut partition = None;
        if let Some(ci) = partitions
            .iter()
            .position(|c| c.prefix == form.switch_prefix)
        {
            let rep = partitions[ci].members[0];
            match certify(named[rep].1, named[i].1, cfg, Depth::Switch) {
                Ok(()) => partition = Some(ci),
                Err(reason) => {
                    partition_report.push(Diagnostic::note(
                        codes::SHARE_NEAR_MISS,
                        format!(
                            "policies '{}' and '{}' share a switch-prefix hash but \
                             fail value certification: {reason}",
                            named[rep].0, named[i].0
                        ),
                    ));
                    partition_near_misses.push(ShareNearMiss {
                        a: rep,
                        b: i,
                        divergence: first_divergence(&forms[rep], form).unwrap_or(Divergence {
                            stage: Stage::Parse,
                            op_index: 0,
                            culprit: reason,
                        }),
                    });
                }
            }
        }
        let partition = partition.unwrap_or_else(|| {
            partitions.push(PrefixClass {
                prefix: form.switch_prefix,
                members: Vec::new(),
                ops: form.ops[..form.switch_ops]
                    .iter()
                    .map(|o| o.desc.clone())
                    .collect(),
            });
            partitions.len() - 1
        });
        partitions[partition].members.push(i);

        let mut placed = false;
        if let Some(class) = plans
            .iter_mut()
            .find(|c| c.partition == partition && c.hash == form.full())
        {
            let rep = class.members[0];
            match certify(named[rep].1, named[i].1, cfg, Depth::Full) {
                Ok(()) => {
                    class.members.push(i);
                    placed = true;
                }
                Err(reason) => {
                    plan_report.push(Diagnostic::note(
                        codes::FUSION_NEAR_MISS,
                        format!(
                            "policies '{}' and '{}' hash equal but are not provably \
                             equivalent: {reason}",
                            named[rep].0, named[i].0
                        ),
                    ));
                    plan_near_misses.push(NearMiss {
                        a: rep,
                        b: i,
                        divergence: first_divergence(&forms[rep], form),
                        reason,
                    });
                }
            }
        }
        if !placed {
            plans.push(PlanClass {
                hash: form.full(),
                partition,
                members: vec![i],
            });
        }
    }

    for class in plans.iter().filter(|c| c.members.len() > 1) {
        plan_report.push(Diagnostic::note(
            codes::FUSION_CLASS,
            format!(
                "policies {} are semantically equivalent (plan hash \
                 {:#018x}): fusible into one shared extraction plan with \
                 per-tenant demux at the vector sink",
                quoted_names(named, &class.members),
                class.hash
            ),
        ));
    }
    for class in partitions.iter().filter(|c| c.members.len() > 1) {
        partition_report.push(Diagnostic::note(
            codes::SHARE_PREFIX,
            format!(
                "policies {} share a certified {}-op switch prefix (hash \
                 {:#018x}): {}; one switch partition serves all {} tenants with \
                 per-tenant map/reduce tails",
                quoted_names(named, &class.members),
                class.ops.len(),
                class.prefix,
                class.ops.join(" → "),
                class.members.len()
            ),
        ));
        let rep_cost = cost::policy_cost(named[class.members[0]].1);
        let saved = class.members.len() - 1;
        let total_dims: usize = class
            .members
            .iter()
            .map(|&m| named[m].1.feature_dimension())
            .sum();
        partition_report.push(Diagnostic::note(
            codes::SHARE_SAVING,
            format!(
                "prefix sharing saves {saved} duplicate switch partition(s): \
                 {} filter entries and {saved}x the parse/groupby pipeline; \
                 per-tenant NIC tails keep all {total_dims} features",
                saved * rep_cost.filter_entries.max(1),
            ),
        ));
    }

    // Plan near-misses between class representatives: shared components
    // (the filter set, a whole level program) that cannot fuse, with the
    // blocking reason.
    for ci in 0..plans.len() {
        for cj in ci + 1..plans.len() {
            let (a, b) = (plans[ci].members[0], plans[cj].members[0]);
            let shared = forms[a].shared_components(&forms[b]);
            if shared.is_empty() {
                continue;
            }
            let reason = forms[a].first_difference(&forms[b]);
            let divergence = first_divergence(&forms[a], &forms[b]);
            let mut message = format!(
                "policies '{}' and '{}' share {} but cannot fuse: {}",
                named[a].0,
                named[b].0,
                shared.join(" and "),
                reason,
            );
            if let Some(d) = &divergence {
                let _ = write!(message, "; first divergence at {d}");
            }
            plan_report.push(Diagnostic::note(codes::FUSION_NEAR_MISS, message));
            plan_near_misses.push(NearMiss {
                a,
                b,
                reason,
                divergence,
            });
        }
    }

    // Partition near-misses between class representatives: a shared prefix
    // that runs deeper than the parse stage but breaks before the switch
    // boundary.
    for ci in 0..partitions.len() {
        for cj in ci + 1..partitions.len() {
            let (a, b) = (partitions[ci].members[0], partitions[cj].members[0]);
            if forms[a].switch_prefix == forms[b].switch_prefix {
                continue; // already reported as a certification failure
            }
            let depth = forms[a].shared_depth(&forms[b]);
            if depth <= 1 {
                continue; // only the parse stage in common: not near
            }
            let Some(d) = first_divergence(&forms[a], &forms[b]) else {
                continue;
            };
            partition_report.push(Diagnostic::note(
                codes::SHARE_NEAR_MISS,
                format!(
                    "policies '{}' and '{}' share {depth} leading op(s) but \
                     diverge before the switch boundary: first divergence at {d}",
                    named[a].0, named[b].0
                ),
            ));
            partition_near_misses.push(ShareNearMiss {
                a,
                b,
                divergence: d,
            });
        }
    }

    ShareAnalysis {
        forms,
        partitions,
        plans,
        plan_near_misses,
        partition_near_misses,
        plan_report,
        partition_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse;

    fn p(src: &str) -> Policy {
        parse(src).unwrap()
    }

    fn full(src: &str, cfg: &ValueConfig) -> u64 {
        prefix_form(&p(src), cfg).full()
    }

    const SUM: &str = "pktstream\n.filter(tcp.exist)\n.filter(size > 100)\n\
                       .groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)";
    const MAXI: &str = "pktstream\n.filter(tcp.exist)\n.filter(size > 100)\n\
                        .groupby(flow)\n.reduce(size, [f_max])\n.collect(flow)";
    const IPT: &str = "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n\
                       .map(ipt, tstamp, f_ipt)\n.reduce(ipt, [f_mean, f_max])\n\
                       .collect(flow)";

    #[test]
    fn prefix_form_is_deterministic_across_runs() {
        let cfg = ValueConfig::default();
        let a = prefix_form(&p(SUM), &cfg);
        for _ in 0..8 {
            let again = prefix_form(&p(SUM), &cfg);
            assert_eq!(again, a);
            assert_eq!(again.full(), a.full());
        }
    }

    #[test]
    fn reports_are_byte_identical_across_runs() {
        let cfg = ValueConfig::default();
        let (a, b) = (p(SUM), p(MAXI));
        let named = [("sum", &a), ("max", &b)];
        let first = analyze_sharing(&named, &cfg).partition_report.render();
        for _ in 0..4 {
            assert_eq!(
                analyze_sharing(&named, &cfg).partition_report.render(),
                first
            );
        }
        assert!(first.contains("SF0801"), "{first}");
    }

    #[test]
    fn conjunct_reordering_keeps_the_switch_prefix() {
        let cfg = ValueConfig::default();
        let swapped = "pktstream\n.filter(size > 100)\n.filter(tcp.exist)\n\
                       .groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)";
        let a = prefix_form(&p(SUM), &cfg);
        let b = prefix_form(&p(swapped), &cfg);
        assert_eq!(a.switch_prefix, b.switch_prefix);
        assert_eq!(a, b);
        assert_eq!(a.full(), b.full());
    }

    #[test]
    fn alpha_renaming_keeps_the_whole_form() {
        let cfg = ValueConfig::default();
        let renamed = "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n\
                       .map(gap, tstamp, f_ipt)\n.reduce(gap, [f_mean, f_max])\n.collect(flow)";
        let (a, b) = (prefix_form(&p(IPT), &cfg), prefix_form(&p(renamed), &cfg));
        assert_eq!(a, b);
        assert_eq!(a.full(), b.full());
        assert!(certify(&p(IPT), &p(renamed), &cfg, Depth::Full).is_ok());
    }

    #[test]
    fn reordered_independent_maps_keep_the_plan() {
        let cfg = ValueConfig::default();
        let ab = "pktstream\n.groupby(flow)\n.map(ipt, tstamp, f_ipt)\n\
                  .map(one, _, f_one)\n.reduce(ipt, [f_mean])\n.reduce(one, [f_sum])\n\
                  .collect(flow)";
        let ba = "pktstream\n.groupby(flow)\n.map(one, _, f_one)\n\
                  .map(ipt, tstamp, f_ipt)\n.reduce(ipt, [f_mean])\n.reduce(one, [f_sum])\n\
                  .collect(flow)";
        assert_eq!(full(ab, &cfg), full(ba, &cfg));
    }

    #[test]
    fn dead_maps_do_not_change_the_plan() {
        let cfg = ValueConfig::default();
        let with_dead = "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n\
                         .map(ipt, tstamp, f_ipt)\n.map(unused, size, f_direction)\n\
                         .reduce(ipt, [f_mean, f_max])\n.collect(flow)";
        assert_eq!(full(IPT, &cfg), full(with_dead, &cfg));
    }

    #[test]
    fn different_units_are_different_plans() {
        let cfg = ValueConfig::default();
        let bytes = "pktstream\n.groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)";
        let time = "pktstream\n.groupby(flow)\n.map(ipt, tstamp, f_ipt)\n\
                    .reduce(ipt, [f_sum])\n.collect(flow)";
        assert_ne!(full(bytes, &cfg), full(time, &cfg));
    }

    #[test]
    fn placeholder_source_renders_as_written() {
        let cfg = ValueConfig::default();
        let awf = "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.map(one, _, f_one)\n\
                   .map(dirseq, one, f_direction)\n.reduce(dirseq, [f_array{5000}])\n\
                   .collect(flow)";
        let form = prefix_form(&p(awf), &cfg);
        let map = form.ops.iter().find(|o| o.stage == Stage::Map).unwrap();
        assert_eq!(map.desc, "map f_direction(f_one(_))");
        assert!(form.ops.iter().all(|o| !o.desc.contains('?')), "{form:?}");
    }

    #[test]
    fn changed_comparison_constant_breaks_the_shared_prefix() {
        let cfg = ValueConfig::default();
        let other = "pktstream\n.filter(tcp.exist)\n.filter(size > 200)\n\
                     .groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)";
        let a = prefix_form(&p(SUM), &cfg);
        let b = prefix_form(&p(other), &cfg);
        assert_ne!(a.switch_prefix, b.switch_prefix);
        let d = first_divergence(&a, &b).unwrap();
        assert_eq!(d.stage, Stage::Filter);
        assert!(
            d.culprit.contains("100") && d.culprit.contains("200"),
            "{}",
            d.culprit
        );
        // And the analysis reports it as an SF0802 near-miss, not a share.
        let (pa, pb) = (p(SUM), p(other));
        let analysis = analyze_sharing(&[("a", &pa), ("b", &pb)], &cfg);
        assert_eq!(analysis.partitions.len(), 2);
        assert!(analysis.partition_report.has_code(codes::SHARE_NEAR_MISS));
        assert!(!analysis.partition_report.has_code(codes::SHARE_PREFIX));
        assert_eq!(analysis.partition_near_misses.len(), 1);
        assert_eq!(
            analysis.partition_near_misses[0].divergence.stage,
            Stage::Filter
        );
    }

    #[test]
    fn reducer_type_and_order_are_different_plans() {
        let cfg = ValueConfig::default();
        let sum = "pktstream\n.groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)";
        let mean = "pktstream\n.groupby(flow)\n.reduce(size, [f_mean])\n.collect(flow)";
        assert_ne!(full(sum, &cfg), full(mean, &cfg));
        // Reduce order fixes the feature layout: reordering is not
        // output-preserving and must be a different plan.
        let ab = "pktstream\n.groupby(flow)\n.reduce(size, [f_min])\n.reduce(size, [f_max])\n\
                  .collect(flow)";
        let ba = "pktstream\n.groupby(flow)\n.reduce(size, [f_max])\n.reduce(size, [f_min])\n\
                  .collect(flow)";
        assert_ne!(full(ab, &cfg), full(ba, &cfg));
    }

    #[test]
    fn reducer_order_keeps_the_switch_prefix_but_breaks_the_full_form() {
        let cfg = ValueConfig::default();
        let ab = "pktstream\n.groupby(flow)\n.reduce(size, [f_min, f_max])\n.collect(flow)";
        let ba = "pktstream\n.groupby(flow)\n.reduce(size, [f_max, f_min])\n.collect(flow)";
        let a = prefix_form(&p(ab), &cfg);
        let b = prefix_form(&p(ba), &cfg);
        assert_eq!(a.switch_prefix, b.switch_prefix);
        assert_ne!(a.full(), b.full());
        let d = first_divergence(&a, &b).unwrap();
        assert_eq!(d.stage, Stage::Reduce);
    }

    #[test]
    fn granularity_and_collect_unit_are_different_plans() {
        let cfg = ValueConfig::default();
        let flow = "pktstream\n.groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)";
        let host = "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)";
        let pkt = "pktstream\n.groupby(flow)\n.reduce(size, [f_sum])\n.collect(pkt)";
        assert_ne!(full(flow, &cfg), full(host, &cfg));
        assert_ne!(full(flow, &cfg), full(pkt, &cfg));
    }

    #[test]
    fn deployment_config_seeds_the_prefix() {
        let pol = p(SUM);
        let a = ValueConfig::default();
        let aged = prefix_form(
            &pol,
            &ValueConfig {
                aging_t_ns: a.aging_t_ns * 2,
                ..a
            },
        );
        let batched = prefix_form(
            &pol,
            &ValueConfig {
                group_packets: a.group_packets * 2,
                ..a
            },
        );
        let base = prefix_form(&pol, &a);
        assert_ne!(base.switch_prefix, aged.switch_prefix);
        assert_ne!(base.full(), aged.full());
        assert_ne!(base.full(), batched.full());
    }

    #[test]
    fn shared_pair_certifies_and_reports_the_op_list() {
        let cfg = ValueConfig::default();
        let (a, b) = (p(SUM), p(MAXI));
        assert!(certify(&a, &b, &cfg, Depth::Switch).is_ok());
        let analysis = analyze_sharing(&[("sum", &a), ("max", &b)], &cfg);
        assert_eq!(analysis.partitions.len(), 1);
        assert_eq!(analysis.partitions[0].members, vec![0, 1]);
        assert_eq!(analysis.plans.len(), 2, "distinct tails stay two plans");
        let share = analysis
            .partition_report
            .diagnostics()
            .iter()
            .find(|d| d.code == codes::SHARE_PREFIX)
            .unwrap();
        assert!(share.message.contains("groupby(flow)"), "{}", share.message);
        assert!(share.message.contains("filter"), "{}", share.message);
        assert!(analysis.partition_report.has_code(codes::SHARE_SAVING));
    }

    #[test]
    fn different_filters_fail_certification_with_a_divergence() {
        let cfg = ValueConfig::default();
        let other = p("pktstream\n.filter(udp.exist)\n.groupby(flow)\n\
                       .reduce(size, [f_sum])\n.collect(flow)");
        let err = certify(&p(SUM), &other, &cfg, Depth::Switch).unwrap_err();
        assert!(err.contains("switch prefixes differ"), "{err}");
        // Full depth asks for more: a shared switch prefix is not a plan.
        assert!(certify(&p(SUM), &p(MAXI), &cfg, Depth::Switch).is_ok());
        let err = certify(&p(SUM), &p(MAXI), &cfg, Depth::Full).unwrap_err();
        assert!(
            err.contains("plans differ") && err.contains("reduce tail"),
            "{err}"
        );
    }

    #[test]
    fn semantic_check_names_the_blocking_reason() {
        // The semantic layer sits behind the structural one, reachable in
        // `certify` only through a hash collision: exercised directly.
        let cfg = ValueConfig::default();
        let sum = p("pktstream\n.groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)");
        let two = p("pktstream\n.groupby(flow)\n.reduce(size, [f_sum, f_max])\n.collect(flow)");
        // Same dimension, different proven input range (filter narrows it).
        let narrowed =
            p("pktstream\n.filter(size <= 200)\n.groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)");
        let (sum, two, narrowed) = (
            Facts::of(&sum, &cfg),
            Facts::of(&two, &cfg),
            Facts::of(&narrowed, &cfg),
        );
        let err = certify_reducers(&sum, &two).unwrap_err();
        assert!(err.contains("feature dimensions differ"), "{err}");
        let err = certify_reducers(&sum, &narrowed).unwrap_err();
        assert!(err.contains("ranges differ"), "{err}");
        let err = certify_boundary(&sum, &narrowed).unwrap_err();
        assert!(err.contains("groupby boundary"), "{err}");
    }

    #[test]
    fn report_names_plan_classes_and_near_misses() {
        let cfg = ValueConfig::default();
        let a = p(IPT);
        let b = p(IPT);
        let near = p("pktstream\n.filter(tcp.exist)\n.groupby(flow)\n\
                      .map(ipt, tstamp, f_ipt)\n.reduce(ipt, [f_mean, f_min])\n\
                      .collect(flow)");
        let analysis = analyze_sharing(&[("a", &a), ("b", &b), ("c", &near)], &cfg);
        assert_eq!(analysis.plans.len(), 2);
        assert_eq!(analysis.plans[0].members, vec![0, 1]);
        assert_eq!(analysis.plans[0].hash, analysis.forms[0].full());
        assert_eq!(analysis.plans[1].members, vec![2]);
        assert!(analysis.plan_report.has_code(codes::FUSION_CLASS));
        // All three share the switch prefix: the plan classes refine one
        // partition class.
        assert_eq!(analysis.partitions.len(), 1);
        assert_eq!(analysis.partitions[0].members, vec![0, 1, 2]);
        assert!(analysis.plans.iter().all(|c| c.partition == 0));
        // The near-miss shares the filter set but differs at level 1.
        let near_misses: Vec<_> = analysis
            .plan_report
            .diagnostics()
            .iter()
            .filter(|d| d.code == codes::FUSION_NEAR_MISS)
            .collect();
        assert_eq!(near_misses.len(), 1);
        assert!(
            near_misses[0].message.contains("filter set"),
            "{}",
            near_misses[0].message
        );
        assert!(
            near_misses[0].message.contains("programs differ"),
            "{}",
            near_misses[0].message
        );
        assert_eq!(analysis.plan_near_misses.len(), 1);
        assert_eq!(
            analysis.plan_near_misses[0]
                .divergence
                .as_ref()
                .unwrap()
                .stage,
            Stage::Reduce
        );
    }

    #[test]
    fn a_level_program_is_recognised_at_another_depth() {
        let cfg = ValueConfig::default();
        let one = p("pktstream\n.groupby(channel)\n.reduce(size, [f_mean])\n.collect(channel)");
        let two = p(
            "pktstream\n.groupby(socket)\n.reduce(size, [f_sum])\n.collect(socket)\n\
                     .groupby(channel)\n.reduce(size, [f_mean])\n.collect(channel)",
        );
        let analysis = analyze_sharing(&[("one", &one), ("two", &two)], &cfg);
        let note = &analysis.plan_report.diagnostics()[0];
        assert!(
            note.message
                .contains("share filter set and level 1 (Channel) but cannot fuse: grouping depth differs (1 vs 2 levels)"),
            "{}",
            note.message
        );
    }

    #[test]
    fn disjoint_policies_produce_no_findings() {
        let cfg = ValueConfig::default();
        let a = p("pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)");
        let b = p("pktstream\n.filter(udp.exist)\n.groupby(channel)\n\
                   .reduce(size, [f_min])\n.collect(pkt)");
        let analysis = analyze_sharing(&[("a", &a), ("b", &b)], &cfg);
        assert_eq!(analysis.partitions.len(), 2);
        assert_eq!(analysis.plans.len(), 2);
        assert!(analysis.partition_report.diagnostics().is_empty());
        assert!(analysis.plan_report.diagnostics().is_empty());
    }

    #[test]
    fn map_chains_sit_after_the_switch_boundary() {
        let cfg = ValueConfig::default();
        // Same switch prefix, different map chains: still shareable.
        let bytes = "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)";
        let times = "pktstream\n.groupby(host)\n.map(ipt, tstamp, f_ipt)\n\
                     .reduce(ipt, [f_mean])\n.collect(host)";
        let a = prefix_form(&p(bytes), &cfg);
        let b = prefix_form(&p(times), &cfg);
        assert_eq!(a.switch_prefix, b.switch_prefix);
        assert!(certify(&p(bytes), &p(times), &cfg, Depth::Switch).is_ok());
        let d = first_divergence(&a, &b).unwrap();
        assert!(matches!(d.stage, Stage::Map | Stage::Reduce), "{d}");
    }
}
