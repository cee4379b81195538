//! `superfe serve`: N tenants on one shared switch/NIC with admission
//! control, epoch-based hot attach/detach, snapshot and restore.

use std::fmt::Write as _;

use superfe_core::{AnalyzeConfig, StreamingPipeline, SuperFeConfig};
use superfe_ctrl::{CtrlPlane, TenantOccupancy, TenantSpec};
use superfe_nic::StreamOutput;
use superfe_switch::TenantId;
use superfe_trafficgen::{Workload, WorkloadPreset};

use crate::args::{err, fail, resolve_policy, CliError, Flags};

/// Options of `superfe serve`.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeArgs {
    /// Built-in names or file paths, one per tenant.
    pub policies: Vec<String>,
    /// Workload preset.
    pub trace: WorkloadPreset,
    /// Trace size in packets.
    pub packets: usize,
    /// RNG seed.
    pub seed: u64,
    /// NIC shard count.
    pub workers: usize,
    /// `(tenant index, packet)` pairs: attach late instead of at start.
    pub attach_at: Vec<(usize, usize)>,
    /// `(tenant index, packet)` pairs: hot-detach mid-stream.
    pub detach_at: Vec<(usize, usize)>,
    /// `(tenant index, slots)` pairs: per-tenant cache quota (switch
    /// short-buffer slot count) overriding the §7 default.
    pub cache_slots: Vec<(usize, usize)>,
    /// Re-run every tenant alone and fail unless the shared-plane output is
    /// bitwise identical.
    pub verify_solo: bool,
    /// Analysis-certified cross-tenant sharing — SF07xx plan fusion and
    /// SF08xx prefix sharing (disable with --no-fuse).
    pub fuse: bool,
    /// Write a live plane snapshot to this path mid-stream.
    pub snapshot: Option<String>,
    /// Packet index at which the snapshot is taken (with `--snapshot`;
    /// defaults to the middle of the trace).
    pub snapshot_at: Option<usize>,
    /// Restore the plane from a snapshot file and serve the remainder of
    /// the trace (resumes at the saved packet position).
    pub restore: Option<String>,
    /// Pin group-table eviction to `RandomWay` with this seed so eviction
    /// sequences are reproducible run to run.
    pub evict_seed: Option<u64>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            policies: Vec::new(),
            trace: WorkloadPreset::Enterprise,
            packets: 20_000,
            seed: 1,
            workers: 2,
            attach_at: Vec::new(),
            detach_at: Vec::new(),
            cache_slots: Vec::new(),
            verify_solo: false,
            fuse: true,
            snapshot: None,
            snapshot_at: None,
            restore: None,
            evict_seed: None,
        }
    }
}

/// Parses the arguments after `superfe serve`.
pub(crate) fn parse(args: &[String]) -> Result<ServeArgs, CliError> {
    let (policies, flags) = Flags::after_policies(
        args,
        "usage: superfe serve <policy> [<policy>...] [options]",
    )?;
    let mut a = ServeArgs {
        policies,
        ..ServeArgs::default()
    };
    flags.each(|flag, f| {
        match flag {
            "--trace" => a.trace = f.trace()?,
            "--packets" => a.packets = f.parse("an integer")?,
            "--seed" => a.seed = f.parse("an integer")?,
            "--workers" => a.workers = f.workers()?,
            "--attach-at" => a.attach_at.push(f.tenant_pair()?),
            "--detach-at" => a.detach_at.push(f.tenant_pair()?),
            "--cache-slots" => match f.tenant_pair()? {
                (_, 0) => return Err(err("--cache-slots expects a positive slot count")),
                pair => a.cache_slots.push(pair),
            },
            "--verify-solo" => a.verify_solo = true,
            "--no-fuse" => a.fuse = false,
            "--snapshot" => a.snapshot = Some(f.value()?),
            "--snapshot-at" => a.snapshot_at = Some(f.parse("an integer")?),
            "--restore" => a.restore = Some(f.value()?),
            "--evict-seed" => a.evict_seed = Some(f.parse("an integer")?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    for &(idx, _) in a.attach_at.iter().chain(&a.detach_at).chain(&a.cache_slots) {
        if idx >= a.policies.len() {
            return Err(err(format!(
                "tenant index {idx} out of range (serving {} policies)",
                a.policies.len()
            )));
        }
    }
    if a.snapshot_at.is_some() && a.snapshot.is_none() {
        return Err(err("--snapshot-at needs --snapshot PATH"));
    }
    if a.restore.is_some() {
        if a.snapshot.is_some() {
            return Err(err("--restore and --snapshot are mutually exclusive"));
        }
        if !(a.attach_at.is_empty() && a.detach_at.is_empty()) {
            return Err(err("--restore resumes the snapshotted topology; \
                 --attach-at/--detach-at schedules don't apply"));
        }
        if a.evict_seed.is_some() {
            return Err(err(
                "--restore resumes the snapshotted eviction state; --evict-seed doesn't apply",
            ));
        }
    }
    Ok(a)
}

/// FNV-1a digest over a tenant's complete output (group then packet
/// vectors: key bytes, then value bits) — the fingerprint `--snapshot` /
/// `--restore` smokes diff to certify bitwise-identical output.
fn output_digest(out: &StreamOutput) -> u64 {
    use superfe_net::GroupKey;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for v in out.group_vectors.iter().chain(&out.packet_vectors) {
        let mut buf = [0u8; GroupKey::MAX_KEY_BYTES];
        let len = v.key.write_bytes(&mut buf);
        fold(&buf[..len]);
        for x in v.values.as_slice() {
            fold(&x.to_bits().to_le_bytes());
        }
    }
    h
}

/// One tenant's live state occupancy as a report line.
fn occupancy_line(occ: &TenantOccupancy) -> String {
    let mut line = format!("tenant {} {} state:", occ.tenant, occ.name);
    for (g, n) in &occ.groups_per_level {
        write!(line, " {}={n}", format!("{g:?}").to_lowercase()).expect("write");
    }
    write!(
        line,
        " evicted_groups={} overflow_drops={}",
        occ.evicted_groups, occ.overflow_drops
    )
    .expect("write");
    line
}

/// One tenant's output as a report line: vector counts and digest.
fn output_line(id: TenantId, name: &str, out: &StreamOutput) -> String {
    format!(
        "tenant {id} {name}: group_vectors={} packet_vectors={} records={} digest={:016x}",
        out.group_vectors.len(),
        out.packet_vectors.len(),
        out.stats.records,
        output_digest(out)
    )
}

/// Runs `superfe serve`.
pub(crate) fn serve(a: &ServeArgs) -> Result<String, CliError> {
    let mut specs = Vec::new();
    for name in &a.policies {
        let (_, policy) = resolve_policy(name)?;
        let label = std::path::Path::new(name)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(name)
            .to_lowercase();
        specs.push(TenantSpec {
            name: label,
            policy,
            cfg: SuperFeConfig::default(),
        });
    }
    // Per-tenant cache quotas; tenants with different quotas never fuse
    // (the legality rule requires identical deployment configuration).
    for &(ti, slots) in &a.cache_slots {
        specs[ti].cfg.cache.short_count = slots;
    }
    // Per-tenant epoch schedule: the last flag for a tenant wins.
    let mut attach_pkt = vec![0; specs.len()];
    let mut detach_pkt = vec![None; specs.len()];
    for &(ti, p) in &a.attach_at {
        attach_pkt[ti] = p;
    }
    for &(ti, p) in &a.detach_at {
        detach_pkt[ti] = Some(p);
    }
    for i in 0..specs.len() {
        if attach_pkt[i] >= a.packets.max(1) {
            return Err(err(format!(
                "tenant {i}: --attach-at {} is past the end of the trace",
                attach_pkt[i]
            )));
        }
        if let Some(d) = detach_pkt[i] {
            if d <= attach_pkt[i] || d > a.packets {
                return Err(err(format!(
                    "tenant {i}: --detach-at {d} must fall after its attach and within the trace"
                )));
            }
        }
    }

    let t = Workload::preset(a.trace)
        .packets(a.packets)
        .seed(a.seed)
        .generate();

    if let Some(path) = &a.restore {
        // Resume from a snapshot: topology, worker count, and resume
        // position all come from the file; the trace is regenerated
        // deterministically and replayed from the saved packet position.
        let bytes =
            std::fs::read(path).map_err(|e| err(format!("reading snapshot {path}: {e}")))?;
        let mut plane =
            CtrlPlane::restore(AnalyzeConfig::default(), &specs, &bytes, |_| None).map_err(fail)?;
        let resume = usize::try_from(plane.pushed()).unwrap_or(usize::MAX);
        if resume > t.records.len() {
            return Err(err(format!(
                "snapshot was taken at packet {resume}, past this trace's {} packets \
                 (regenerate with the original --trace/--packets/--seed)",
                t.records.len()
            )));
        }
        let mut text = String::new();
        writeln!(
            text,
            "restored {} tenants from {path} at packet {resume} ({} workers, epoch {})",
            plane.tenants().len(),
            plane.workers(),
            plane.epoch()
        )
        .expect("write");
        for rec in &t.records[resume..] {
            plane.push(rec).map_err(fail)?;
        }
        for occ in plane.state_occupancy().map_err(fail)? {
            writeln!(text, "{}", occupancy_line(&occ)).expect("write");
        }
        for run in plane.finish().map_err(fail)? {
            writeln!(text, "{}", output_line(run.id, &run.name, &run.output)).expect("write");
        }
        return Ok(text);
    }

    let snapshot = a.snapshot.as_deref().map(|path| {
        let at = a.snapshot_at.unwrap_or(a.packets / 2);
        (path, at.min(t.records.len()))
    });
    let mut plane = if a.fuse {
        CtrlPlane::new(a.workers, AnalyzeConfig::default())
    } else {
        CtrlPlane::without_fusion(a.workers, AnalyzeConfig::default())
    };
    // An explicit eviction seed pins every tenant attached below to the
    // seeded `RandomWay` policy, making eviction sequences reproducible
    // from the CLI. Restores keep the snapshotted state instead (rejected
    // at parse time).
    if let Some(seed) = a.evict_seed {
        plane.set_table_budget(superfe_nic::TableBudget {
            policy: superfe_nic::EvictionPolicy::RandomWay { seed },
            ..superfe_nic::TableBudget::default()
        });
    }
    let mut ids: Vec<Option<TenantId>> = vec![None; specs.len()];
    let mut outputs: Vec<Option<StreamOutput>> = (0..specs.len()).map(|_| None).collect();
    let mut text = String::new();
    let take_snapshot = |plane: &mut CtrlPlane, text: &mut String| -> Result<(), CliError> {
        let Some((path, _)) = snapshot else {
            return Ok(());
        };
        let bytes = plane.snapshot().map_err(fail)?;
        std::fs::write(path, &bytes).map_err(|e| err(format!("writing snapshot {path}: {e}")))?;
        writeln!(
            text,
            "snapshot: wrote {} bytes to {path} at packet {} (epoch {})",
            bytes.len(),
            plane.pushed(),
            plane.epoch()
        )
        .expect("write");
        Ok(())
    };

    for (i, rec) in t.records.iter().enumerate() {
        if snapshot.map(|(_, at)| at) == Some(i) {
            take_snapshot(&mut plane, &mut text)?;
        }
        for ti in 0..specs.len() {
            if attach_pkt[ti] == i {
                let units_before = plane.units().len();
                let groups_before = plane.groups().len();
                let id = plane.attach(&specs[ti], None).map_err(fail)?;
                ids[ti] = Some(id);
                let fused = plane.units().len() == units_before;
                let shared = !fused && plane.groups().len() == groups_before;
                writeln!(
                    text,
                    "epoch {}: attached {id} ({}) at packet {i}{}",
                    plane.epoch(),
                    specs[ti].name,
                    if fused {
                        " — fused into a shared execution unit"
                    } else if shared {
                        " — sharing a switch partition (SF08xx prefix)"
                    } else {
                        ""
                    }
                )
                .expect("write");
            }
            if detach_pkt[ti] == Some(i) {
                let id = ids[ti].expect("detach is validated to follow attach");
                outputs[ti] = Some(plane.detach(id).map_err(fail)?);
                writeln!(
                    text,
                    "epoch {}: detached {id} ({}) at packet {i}",
                    plane.epoch(),
                    specs[ti].name
                )
                .expect("write");
            }
        }
        plane.push(rec).map_err(fail)?;
    }
    if snapshot.map(|(_, at)| at) == Some(t.records.len()) {
        take_snapshot(&mut plane, &mut text)?;
    }
    let epochs = plane.epoch();
    let live_units = plane.units().len();
    let live_groups = plane.groups().len();
    let occupancy = plane.state_occupancy().map_err(fail)?;
    for run in plane.finish().map_err(fail)? {
        let ti = ids
            .iter()
            .position(|id| *id == Some(run.id))
            .expect("finish returns only attached tenants");
        outputs[ti] = Some(run.output);
    }

    writeln!(
        text,
        "served {} tenants over {} packets ({} epochs, {} workers)",
        specs.len(),
        t.records.len(),
        epochs,
        a.workers
    )
    .expect("write");
    let sharing = if a.fuse { "enabled" } else { "disabled" };
    writeln!(
        text,
        "execution units at shutdown: {live_units} (cross-policy fusion {sharing})"
    )
    .expect("write");
    writeln!(
        text,
        "shared switch partitions at shutdown: {live_groups} (cross-tenant CSE {sharing})"
    )
    .expect("write");
    for occ in &occupancy {
        writeln!(text, "{}", occupancy_line(occ)).expect("write");
    }
    for (ti, spec) in specs.iter().enumerate() {
        let out = outputs[ti].as_ref().expect("every tenant ran");
        let id = ids[ti].expect("attached");
        writeln!(text, "{}", output_line(id, &spec.name, out)).expect("write");
    }

    if a.verify_solo {
        for (ti, spec) in specs.iter().enumerate() {
            let window = &t.records[attach_pkt[ti]..detach_pkt[ti].unwrap_or(t.records.len())];
            let mut fe =
                StreamingPipeline::with_config(&spec.policy, spec.cfg, a.workers).map_err(fail)?;
            for rec in window {
                fe.push(rec).map_err(fail)?;
            }
            let solo = fe.finish().map_err(fail)?;
            let out = outputs[ti].as_ref().expect("every tenant ran");
            if solo.group_vectors != out.group_vectors || solo.packet_vectors != out.packet_vectors
            {
                return Err(err(format!(
                    "isolation violated: tenant {ti} ({}) diverged from its solo run \
                     (solo {}+{} vectors, shared {}+{})",
                    spec.name,
                    solo.group_vectors.len(),
                    solo.packet_vectors.len(),
                    out.group_vectors.len(),
                    out.packet_vectors.len()
                )));
            }
            writeln!(
                text,
                "verified tenant {} {}: bitwise identical to solo run",
                ids[ti].expect("attached"),
                spec.name
            )
            .expect("write");
        }
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::argv;

    /// `policies` as tenants on the campus trace, the other options at
    /// their defaults.
    fn tenants(policies: &[&str]) -> ServeArgs {
        ServeArgs {
            policies: policies.iter().map(ToString::to_string).collect(),
            trace: WorkloadPreset::Campus,
            ..ServeArgs::default()
        }
    }

    #[test]
    fn parses_serve_options() {
        let a = parse(&argv(
            "cumul kitsune --packets 5000 --workers 4 --attach-at 1:100 \
             --detach-at 1:900 --cache-slots 0:4096 --no-fuse --verify-solo --evict-seed 5",
        ))
        .unwrap();
        assert_eq!(
            a,
            ServeArgs {
                policies: vec!["cumul".into(), "kitsune".into()],
                packets: 5000,
                workers: 4,
                attach_at: vec![(1, 100)],
                detach_at: vec![(1, 900)],
                cache_slots: vec![(0, 4096)],
                verify_solo: true,
                fuse: false,
                evict_seed: Some(5),
                ..ServeArgs::default()
            }
        );
        let a = parse(&argv("cumul --snapshot /tmp/s.bin --snapshot-at 42")).unwrap();
        assert_eq!(a.snapshot.as_deref(), Some("/tmp/s.bin"));
        assert_eq!(a.snapshot_at, Some(42));
        assert!(a.restore.is_none());
    }

    #[test]
    fn serve_snapshot_then_restore_replays_bitwise() {
        let dir = std::env::temp_dir().join("superfe_cli_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("plane.sfsn").to_str().unwrap().to_string();
        let run = |snapshot: Option<String>, restore: Option<String>| {
            serve(&ServeArgs {
                packets: 2_000,
                seed: 9,
                snapshot_at: snapshot.is_some().then_some(1_000),
                snapshot,
                restore,
                ..tenants(&["cumul", "npod"])
            })
            .unwrap()
        };
        let digests = |out: &str| -> Vec<String> {
            out.lines()
                .filter_map(|l| l.split("digest=").nth(1).map(str::to_string))
                .collect()
        };
        let full = run(Some(snap.clone()), None);
        assert!(full.contains("snapshot: wrote"), "{full}");
        let restored = run(None, Some(snap));
        assert!(restored.contains("restored 2 tenants"), "{restored}");
        // The restored run resumes mid-trace yet finishes with per-tenant
        // output digests bitwise-equal to the uninterrupted run.
        let (a, b) = (digests(&full), digests(&restored));
        assert_eq!(a.len(), 2, "{full}");
        assert_eq!(a, b, "full:\n{full}\nrestored:\n{restored}");
    }

    #[test]
    fn serve_runs_tenants_solo_identical() {
        let out = serve(&ServeArgs {
            packets: 4_000,
            seed: 3,
            detach_at: vec![(1, 2_000)],
            verify_solo: true,
            ..tenants(&["cumul", "npod"])
        })
        .unwrap();
        assert!(out.contains("served 2 tenants"), "{out}");
        assert!(out.contains("tenant t0 cumul: group_vectors="), "{out}");
        assert!(out.contains("detached t1 (npod) at packet 2000"), "{out}");
        assert!(
            out.contains("verified tenant t1 npod: bitwise identical"),
            "{out}"
        );
    }

    #[test]
    fn serve_rejects_overcommitted_tenant_set() {
        // Enough Kitsune-class tenants to exhaust the Tofino: admission must
        // refuse the set with the binding resource, and the command must
        // exit non-zero. Fusion stays off: twelve identical policies would
        // otherwise share one execution plan and admit trivially.
        let e = serve(&ServeArgs {
            packets: 100,
            workers: 1,
            fuse: false,
            ..tenants(&["kitsune"; 12])
        })
        .unwrap_err();
        assert!(e.message.contains("admission rejected"), "{e}");
        assert!(e.message.contains("exhausted"), "{e}");
    }

    #[test]
    fn serve_validates_epoch_schedule() {
        let run = |attach_at: Vec<(usize, usize)>, detach_at: Vec<(usize, usize)>| {
            serve(&ServeArgs {
                packets: 100,
                workers: 1,
                attach_at,
                detach_at,
                ..tenants(&["cumul"])
            })
        };
        assert!(
            run(vec![(0, 100)], vec![]).is_err(),
            "attach past trace end"
        );
        assert!(
            run(vec![(0, 50)], vec![(0, 50)]).is_err(),
            "detach at attach"
        );
        assert!(
            run(vec![], vec![(0, 500)]).is_err(),
            "detach past trace end"
        );
    }

    #[test]
    fn serve_prefix_sharing_shares_partitions_bitwise() {
        let dir = std::env::temp_dir().join("superfe_cli_serve_share_test");
        let (a, b) = crate::check::tests::write_prefix_pair(&dir);
        let run = |fuse| {
            serve(&ServeArgs {
                packets: 4_000,
                seed: 7,
                verify_solo: true,
                fuse,
                ..tenants(&[a.as_str(), b.as_str()])
            })
            .unwrap()
        };
        let out = run(true);
        assert!(
            out.contains("sharing a switch partition (SF08xx prefix)"),
            "{out}"
        );
        assert!(
            out.contains("shared switch partitions at shutdown: 1 (cross-tenant CSE enabled)"),
            "{out}"
        );
        assert!(out.contains("execution units at shutdown: 2"), "{out}");
        assert!(
            out.contains("verified tenant t1 flow_max: bitwise identical"),
            "{out}"
        );
        let out = run(false);
        assert!(
            out.contains("shared switch partitions at shutdown: 2 (cross-tenant CSE disabled)"),
            "{out}"
        );
    }

    #[test]
    fn serve_fuses_equivalent_tenants_and_verifies_solo() {
        // Two tenants running the same policy share one execution unit, and
        // the demuxed outputs still verify bitwise against solo runs.
        let out = serve(&ServeArgs {
            packets: 3_000,
            seed: 5,
            verify_solo: true,
            ..tenants(&["npod", "npod"])
        })
        .unwrap();
        assert!(out.contains("fused into a shared execution unit"), "{out}");
        assert!(
            out.contains("execution units at shutdown: 1 (cross-policy fusion enabled)"),
            "{out}"
        );
        for t in ["t0", "t1"] {
            assert!(
                out.contains(&format!("verified tenant {t} npod: bitwise identical")),
                "{out}"
            );
        }
    }

    #[test]
    fn serve_overcommitted_set_admits_under_fusion() {
        // The same twelve-Kitsune set that admission rejects unfused
        // collapses to one plan when fusion is on, and serves fine.
        let out = serve(&ServeArgs {
            packets: 500,
            workers: 1,
            ..tenants(&["kitsune"; 12])
        })
        .unwrap();
        assert!(out.contains("served 12 tenants"), "{out}");
        assert!(
            out.contains("execution units at shutdown: 1 (cross-policy fusion enabled)"),
            "{out}"
        );
    }

    #[test]
    fn serve_cache_slots_override_applies_per_tenant() {
        // An oversized per-tenant cache quota must fail that tenant's
        // deployment gate (SF0303), proving the override reaches the config.
        let e = serve(&ServeArgs {
            packets: 200,
            workers: 1,
            cache_slots: vec![(1, 4_000_000)],
            ..tenants(&["cumul", "npod"])
        })
        .unwrap_err();
        assert!(e.message.contains("SF0303"), "{e}");
    }
}
