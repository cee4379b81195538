//! The policy operator AST and the Table 5 function inventory.

use superfe_net::Granularity;

/// A key in a packet/group key-value tuple (§4.1).
///
/// Header fields and switch-filled metadata are predefined; `map` creates
/// derived fields which are referenced by name.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Field {
    /// IPv4 source address.
    SrcIp,
    /// IPv4 destination address.
    DstIp,
    /// Transport source port.
    SrcPort,
    /// Transport destination port.
    DstPort,
    /// IP protocol number.
    Proto,
    /// Wire size in bytes (switch metadata).
    Size,
    /// Arrival timestamp in ns (switch metadata).
    Tstamp,
    /// Ingress/egress direction (switch metadata).
    Direction,
    /// Raw TCP flag bits.
    TcpFlags,
    /// A derived field created by `map`.
    Named(String),
}

impl Field {
    /// Parses a field name as written in the DSL.
    pub fn from_name(name: &str) -> Field {
        match name {
            "srcip" | "src_ip" => Field::SrcIp,
            "dstip" | "dst_ip" => Field::DstIp,
            "srcport" | "src_port" => Field::SrcPort,
            "dstport" | "dst_port" => Field::DstPort,
            "proto" => Field::Proto,
            "size" | "len" => Field::Size,
            "tstamp" | "ts" => Field::Tstamp,
            "direction" | "dir" => Field::Direction,
            "tcpflags" | "tcp_flags" => Field::TcpFlags,
            other => Field::Named(other.to_string()),
        }
    }

    /// The DSL spelling of the field.
    pub fn name(&self) -> String {
        match self {
            Field::SrcIp => "srcip".into(),
            Field::DstIp => "dstip".into(),
            Field::SrcPort => "srcport".into(),
            Field::DstPort => "dstport".into(),
            Field::Proto => "proto".into(),
            Field::Size => "size".into(),
            Field::Tstamp => "tstamp".into(),
            Field::Direction => "direction".into(),
            Field::TcpFlags => "tcpflags".into(),
            Field::Named(n) => n.clone(),
        }
    }

    /// Whether the switch can supply this field directly (i.e. it is a
    /// header field or switch metadata, not a `map` product).
    pub fn is_builtin(&self) -> bool {
        !matches!(self, Field::Named(_))
    }
}

/// Comparison operators usable in filter predicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on integers.
    pub fn eval(self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// DSL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A filter predicate (`filter(p)`), compiled to one switch match-action
/// table.
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// `tcp.exist`: the packet carries a TCP header.
    TcpExists,
    /// `udp.exist`: the packet carries a UDP header.
    UdpExists,
    /// Compare a builtin field against a constant.
    Cmp {
        /// Field to inspect (must be switch-visible).
        field: Field,
        /// Comparison operator.
        op: CmpOp,
        /// Constant operand.
        value: u64,
    },
    /// Both sub-predicates hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either sub-predicate holds.
    Or(Box<Predicate>, Box<Predicate>),
    /// The sub-predicate does not hold.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Number of match-table entries this predicate expands to (a simple
    /// resource model: AND widens a single entry, OR adds entries).
    pub fn table_entries(&self) -> usize {
        match self {
            Predicate::Or(a, b) => a.table_entries() + b.table_entries(),
            Predicate::And(a, b) => a.table_entries().max(b.table_entries()),
            _ => 1,
        }
    }
}

/// Mapping functions (`map(d, s, mf)`, Table 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapFn {
    /// `f_one`: emit the constant 1.
    FOne,
    /// `f_ipt`: inter-packet time within the group (ns).
    FIpt,
    /// `f_speed`: instantaneous rate, `size / ipt` (bytes/s).
    FSpeed,
    /// `f_burst`: burst index; increments when the direction flips.
    FBurst,
    /// `f_direction`: multiply the source by the ±1 direction factor.
    FDirection,
}

impl MapFn {
    /// DSL spelling.
    pub fn name(self) -> &'static str {
        match self {
            MapFn::FOne => "f_one",
            MapFn::FIpt => "f_ipt",
            MapFn::FSpeed => "f_speed",
            MapFn::FBurst => "f_burst",
            MapFn::FDirection => "f_direction",
        }
    }

    /// Parses a DSL name.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "f_one" => MapFn::FOne,
            "f_ipt" => MapFn::FIpt,
            "f_speed" => MapFn::FSpeed,
            "f_burst" => MapFn::FBurst,
            "f_direction" => MapFn::FDirection,
            _ => return None,
        })
    }

    /// Per-group state bytes the mapper needs on the NIC (e.g. the previous
    /// timestamp for `f_ipt`).
    pub fn state_bytes(self) -> usize {
        match self {
            MapFn::FOne | MapFn::FDirection => 0,
            MapFn::FIpt | MapFn::FSpeed => 8,
            MapFn::FBurst => 8,
        }
    }
}

/// Reducing functions (`reduce(s, [rf])`, Table 5).
#[derive(Clone, Debug, PartialEq)]
pub enum ReduceFn {
    /// `f_sum`
    Sum,
    /// `f_mean`
    Mean,
    /// `f_var`
    Var,
    /// `f_std`
    Std,
    /// `f_max`
    Max,
    /// `f_min`
    Min,
    /// `f_kur`: excess kurtosis.
    Kur,
    /// `f_skew`
    Skew,
    /// `f_mag`: magnitude of bidirectional means.
    Mag,
    /// `f_radius`: radius of bidirectional variances.
    Radius,
    /// `f_cov`: bidirectional covariance.
    Cov,
    /// `f_pcc`: bidirectional correlation coefficient.
    Pcc,
    /// `f_card`: distinct count (HyperLogLog with `2^k` buckets).
    Card {
        /// Bucket exponent (4..=16).
        k: u8,
    },
    /// `f_array{cap}`: pack values into a fixed-length array.
    Array {
        /// Array capacity (and emitted feature length).
        cap: usize,
    },
    /// `f_pdf{width, bins}`: normalized histogram.
    Pdf {
        /// Bin width.
        width: f64,
        /// Number of bins.
        bins: usize,
    },
    /// `f_cdf{width, bins}`: normalized cumulative histogram.
    Cdf {
        /// Bin width.
        width: f64,
        /// Number of bins.
        bins: usize,
    },
    /// `ft_hist{width, bins}`: raw histogram counts.
    Hist {
        /// Bin width.
        width: f64,
        /// Number of bins.
        bins: usize,
    },
    /// `ft_percent{width, bins, q}`: the `q`-quantile estimated from a
    /// histogram (`q` in percent, 0–100).
    Percent {
        /// Bin width of the underlying histogram.
        width: f64,
        /// Number of bins.
        bins: usize,
        /// Percentile in percent.
        q: f64,
    },
    /// `ft_histlog{unit, base, bins}`: histogram with geometrically growing
    /// bin widths (§6.1's "variable bin width" accuracy refinement for
    /// long-tailed data).
    HistLog {
        /// Scale of the first bin.
        unit: f64,
        /// Growth factor between consecutive bin edges (> 1).
        base: f64,
        /// Number of bins.
        bins: usize,
    },
    /// `f_damped{lambda}`: damped-window `(weight, mean, std)` with decay
    /// rate `lambda` per second — the Kitsune 1-D statistic. A SuperFE
    /// interface extension (§4.1 allows users to extend the function set).
    Damped {
        /// Decay rate per second (0 = undamped).
        lambda: f64,
    },
    /// `f_damped2d{lambda}`: damped bidirectional
    /// `(magnitude, radius, covariance, pcc)` — the Kitsune 2-D statistic.
    Damped2d {
        /// Decay rate per second (0 = undamped).
        lambda: f64,
    },
}

impl ReduceFn {
    /// DSL spelling, without parameters.
    pub fn name(&self) -> &'static str {
        match self {
            ReduceFn::Sum => "f_sum",
            ReduceFn::Mean => "f_mean",
            ReduceFn::Var => "f_var",
            ReduceFn::Std => "f_std",
            ReduceFn::Max => "f_max",
            ReduceFn::Min => "f_min",
            ReduceFn::Kur => "f_kur",
            ReduceFn::Skew => "f_skew",
            ReduceFn::Mag => "f_mag",
            ReduceFn::Radius => "f_radius",
            ReduceFn::Cov => "f_cov",
            ReduceFn::Pcc => "f_pcc",
            ReduceFn::Card { .. } => "f_card",
            ReduceFn::Array { .. } => "f_array",
            ReduceFn::Pdf { .. } => "f_pdf",
            ReduceFn::Cdf { .. } => "f_cdf",
            ReduceFn::Hist { .. } => "ft_hist",
            ReduceFn::HistLog { .. } => "ft_histlog",
            ReduceFn::Percent { .. } => "ft_percent",
            ReduceFn::Damped { .. } => "f_damped",
            ReduceFn::Damped2d { .. } => "f_damped2d",
        }
    }

    /// Number of feature values this function contributes.
    pub fn feature_len(&self) -> usize {
        match self {
            ReduceFn::Array { cap } => *cap,
            ReduceFn::Pdf { bins, .. }
            | ReduceFn::Cdf { bins, .. }
            | ReduceFn::Hist { bins, .. }
            | ReduceFn::HistLog { bins, .. } => *bins,
            ReduceFn::Damped { .. } => 3,
            ReduceFn::Damped2d { .. } => 4,
            _ => 1,
        }
    }

    /// Per-group state bytes on the NIC.
    pub fn state_bytes(&self) -> usize {
        match self {
            ReduceFn::Sum => 4,
            ReduceFn::Max | ReduceFn::Min => 4,
            // Welford (n, mean, M2) packed as 4-byte words.
            ReduceFn::Mean | ReduceFn::Var | ReduceFn::Std => 12,
            // Higher moments add M3/M4.
            ReduceFn::Kur | ReduceFn::Skew => 20,
            // Bidirectional damped pair (two triples + joint state).
            ReduceFn::Mag | ReduceFn::Radius | ReduceFn::Cov | ReduceFn::Pcc => 28,
            ReduceFn::Card { k } => 1usize << k,
            ReduceFn::Array { cap } => cap * 4,
            ReduceFn::Pdf { bins, .. }
            | ReduceFn::Cdf { bins, .. }
            | ReduceFn::Hist { bins, .. }
            | ReduceFn::HistLog { bins, .. }
            | ReduceFn::Percent { bins, .. } => bins * 4,
            // w, LS, SS, last_ts as 4-byte words.
            ReduceFn::Damped { .. } => 16,
            // Two damped triples plus the joint residual state.
            ReduceFn::Damped2d { .. } => 40,
        }
    }
}

/// Synthesizing functions (`synthesize(sf)`, Table 5), post-processing the
/// features of the preceding `reduce`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SynthFn {
    /// `f_marker`: cumulative totals at each direction change.
    Marker,
    /// `f_norm`: normalize the sequence to unit maximum.
    Norm,
    /// `ft_sample{n}`: take `n` evenly spaced samples.
    Sample {
        /// Output length.
        n: usize,
    },
}

impl SynthFn {
    /// DSL spelling, without parameters.
    pub fn name(self) -> &'static str {
        match self {
            SynthFn::Marker => "f_marker",
            SynthFn::Norm => "f_norm",
            SynthFn::Sample { .. } => "ft_sample",
        }
    }

    /// Output length given an input of `input_len` features.
    pub fn output_len(self, input_len: usize) -> usize {
        match self {
            SynthFn::Marker | SynthFn::Norm => input_len,
            SynthFn::Sample { n } => n,
        }
    }
}

/// The unit `collect(u)` produces feature vectors for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectUnit {
    /// One feature vector per packet.
    Pkt,
    /// One feature vector per group of the given granularity.
    Group(Granularity),
}

/// One operator in a policy chain.
#[derive(Clone, Debug, PartialEq)]
pub enum Operator {
    /// `filter(p)` — select packets satisfying `p` (switch side).
    Filter(Predicate),
    /// `groupby(g)` — partition the stream by granularity `g` (switch side).
    GroupBy(Granularity),
    /// `map(d, s, mf)` — derive field `d` from `s` with `mf` (NIC side).
    Map {
        /// Destination field.
        dst: Field,
        /// Source field (`Field::Named("_")` is allowed as a placeholder for
        /// functions that ignore their source, like `f_one`).
        src: Field,
        /// Mapping function.
        func: MapFn,
    },
    /// `reduce(s, [rf])` — aggregate field `s` per group (NIC side).
    Reduce {
        /// Source field.
        src: Field,
        /// Reducing functions applied to the aggregated field.
        funcs: Vec<ReduceFn>,
    },
    /// `synthesize(sf)` — post-process the previous reduce (NIC side).
    Synthesize(SynthFn),
    /// `collect(u)` — emit the final feature vector per `u` (NIC side).
    Collect(CollectUnit),
}

impl Operator {
    /// Whether the operator runs on the switch (`groupby`, `filter`) or the
    /// SmartNIC (everything else) — the paper's §4.1 partitioning rule.
    pub fn on_switch(&self) -> bool {
        matches!(self, Operator::Filter(_) | Operator::GroupBy(_))
    }
}

/// A complete feature-extraction policy: an operator chain over `pktstream`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Policy {
    /// Operators in application order.
    pub ops: Vec<Operator>,
}

impl Policy {
    /// Creates an empty policy (not valid until operators are added).
    pub fn new() -> Self {
        Policy::default()
    }

    /// All granularities named by `groupby`, in policy order (fine→coarse).
    pub fn granularities(&self) -> Vec<Granularity> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Operator::GroupBy(g) => Some(*g),
                _ => None,
            })
            .collect()
    }

    /// Total dimension of the feature vector the policy produces.
    pub fn feature_dimension(&self) -> usize {
        let mut dim = 0usize;
        let mut last = 0usize; // contribution of the most recent reduce/synthesize
        for op in &self.ops {
            match op {
                Operator::Reduce { funcs, .. } => {
                    last = funcs.iter().map(ReduceFn::feature_len).sum();
                    dim += last;
                }
                Operator::Synthesize(sf) => {
                    // A synthesize replaces the previous stage's features.
                    dim -= last;
                    last = sf.output_len(last);
                    dim += last;
                }
                _ => {}
            }
        }
        dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_name_round_trip() {
        for name in [
            "srcip",
            "dstip",
            "srcport",
            "dstport",
            "proto",
            "size",
            "tstamp",
            "direction",
            "tcpflags",
            "custom_x",
        ] {
            assert_eq!(Field::from_name(name).name(), name);
        }
    }

    #[test]
    fn builtin_detection() {
        assert!(Field::Size.is_builtin());
        assert!(!Field::Named("ipt".into()).is_builtin());
    }

    #[test]
    fn cmp_op_eval() {
        assert!(CmpOp::Eq.eval(5, 5));
        assert!(CmpOp::Ne.eval(5, 6));
        assert!(CmpOp::Lt.eval(4, 5));
        assert!(CmpOp::Le.eval(5, 5));
        assert!(CmpOp::Gt.eval(6, 5));
        assert!(CmpOp::Ge.eval(5, 5));
    }

    #[test]
    fn predicate_table_entries() {
        let p = Predicate::Or(
            Box::new(Predicate::TcpExists),
            Box::new(Predicate::And(
                Box::new(Predicate::UdpExists),
                Box::new(Predicate::Cmp {
                    field: Field::DstPort,
                    op: CmpOp::Eq,
                    value: 53,
                }),
            )),
        );
        assert_eq!(p.table_entries(), 2);
    }

    #[test]
    fn map_fn_names_round_trip() {
        for f in [
            MapFn::FOne,
            MapFn::FIpt,
            MapFn::FSpeed,
            MapFn::FBurst,
            MapFn::FDirection,
        ] {
            assert_eq!(MapFn::from_name(f.name()), Some(f));
        }
        assert_eq!(MapFn::from_name("f_nope"), None);
    }

    #[test]
    fn reduce_fn_feature_lengths() {
        assert_eq!(ReduceFn::Mean.feature_len(), 1);
        assert_eq!(ReduceFn::Array { cap: 5000 }.feature_len(), 5000);
        assert_eq!(
            ReduceFn::Hist {
                width: 100.0,
                bins: 16
            }
            .feature_len(),
            16
        );
        assert_eq!(
            ReduceFn::Percent {
                width: 1.0,
                bins: 10,
                q: 90.0
            }
            .feature_len(),
            1
        );
    }

    #[test]
    fn reduce_state_sizes_are_positive() {
        for f in [
            ReduceFn::Sum,
            ReduceFn::Mean,
            ReduceFn::Kur,
            ReduceFn::Pcc,
            ReduceFn::Card { k: 8 },
            ReduceFn::Hist {
                width: 1.0,
                bins: 4,
            },
        ] {
            assert!(f.state_bytes() > 0, "{f:?}");
        }
        assert_eq!(ReduceFn::Card { k: 8 }.state_bytes(), 256);
    }

    #[test]
    fn synth_output_lengths() {
        assert_eq!(SynthFn::Norm.output_len(10), 10);
        assert_eq!(SynthFn::Sample { n: 3 }.output_len(10), 3);
    }

    #[test]
    fn operator_placement_rule() {
        assert!(Operator::GroupBy(Granularity::Flow).on_switch());
        assert!(Operator::Filter(Predicate::TcpExists).on_switch());
        assert!(!Operator::Collect(CollectUnit::Pkt).on_switch());
        assert!(!Operator::Reduce {
            src: Field::Size,
            funcs: vec![ReduceFn::Sum]
        }
        .on_switch());
    }

    #[test]
    fn feature_dimension_counts_reduces_and_synths() {
        let p = Policy {
            ops: vec![
                Operator::GroupBy(Granularity::Flow),
                Operator::Reduce {
                    src: Field::Size,
                    funcs: vec![ReduceFn::Mean, ReduceFn::Var],
                },
                Operator::Reduce {
                    src: Field::Named("ipt".into()),
                    funcs: vec![ReduceFn::Array { cap: 100 }],
                },
                Operator::Synthesize(SynthFn::Sample { n: 10 }),
                Operator::Collect(CollectUnit::Group(Granularity::Flow)),
            ],
        };
        // mean+var (2) + sampled array (10).
        assert_eq!(p.feature_dimension(), 12);
    }
}
