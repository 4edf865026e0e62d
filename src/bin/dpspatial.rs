//! `dpspatial` — a small command-line front end for the workspace, the
//! kind of tool a downstream user drives the library with:
//!
//! ```text
//! dpspatial generate --kind roads --n 2000 --size 1024 --seed 7 --out map.csv
//! dpspatial build    --input map.csv --index bpmr --capacity 8
//! dpspatial query    --input map.csv --index rtree --window 10,10,200,150
//! dpspatial nearest  --input map.csv --point 512,300
//! dpspatial join     --a roads.csv --b rivers.csv
//! ```
//!
//! Maps are CSV files with one `ax,ay,bx,by` segment per line (integer
//! grid coordinates inside a power-of-two world, inferred or passed with
//! `--size`). Argument parsing is hand-rolled to keep the dependency set
//! at the workspace's approved list.

use dp_spatial_suite::geom::{LineSeg, Point, Rect};
use dp_spatial_suite::spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial_suite::spatial::join::frontier_join;
use dp_spatial_suite::spatial::pm1::build_pm1;
use dp_spatial_suite::spatial::pm_family::{build_pm2, build_pm3};
use dp_spatial_suite::spatial::rsplit::RtreeSplitAlgorithm;
use dp_spatial_suite::spatial::rtree::{build_rtree, pack_rtree_hilbert};
use dp_spatial_suite::spatial::stats::measure_build;
use dp_spatial_suite::workloads as wl;
use scan_model::Machine;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, flags)) = parse(&args) else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "build" => cmd_build(&flags),
        "query" => cmd_query(&flags),
        "nearest" => cmd_nearest(&flags),
        "join" => cmd_join(&flags),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dpspatial: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
dpspatial — data-parallel spatial indexes (Hoel & Samet, ICPP 1995)

USAGE:
  dpspatial generate --kind <roads|uniform|clustered|rings> --n <N>
                     [--size <pow2>] [--seed <S>] [--out <file>]
  dpspatial build    --input <file> [--index <bpmr|pm1|pm2|pm3|rtree|pack>]
                     [--capacity <B>] [--order <m,M>] [--depth <D>]
  dpspatial query    --input <file> --window <x0,y0,x1,y1> [--index ...]
  dpspatial nearest  --input <file> --point <x,y>
  dpspatial join     --a <file> --b <file> [--capacity <B>]
";

fn parse(args: &[String]) -> Option<(String, HashMap<String, String>)> {
    let mut it = args.iter();
    let cmd = it.next()?.clone();
    let mut flags = HashMap::new();
    while let Some(key) = it.next() {
        let key = key.strip_prefix("--")?.to_string();
        let value = it.next()?.clone();
        flags.insert(key, value);
    }
    Some((cmd, flags))
}

fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn get_or<'a>(flags: &'a HashMap<String, String>, key: &str, default: &'a str) -> &'a str {
    flags.get(key).map(String::as_str).unwrap_or(default)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("cannot parse {what} from `{s}`"))
}

fn parse_csv_numbers(s: &str, count: usize, what: &str) -> Result<Vec<f64>, String> {
    let parts: Vec<f64> = s
        .split(',')
        .map(|p| parse_num(p.trim(), what))
        .collect::<Result<_, _>>()?;
    if parts.len() != count {
        return Err(format!("{what} needs {count} comma-separated numbers"));
    }
    Ok(parts)
}

// ----------------------------------------------------------------------
// Map I/O
// ----------------------------------------------------------------------

fn write_map(path: &str, segs: &[LineSeg]) -> Result<(), String> {
    let mut out = String::with_capacity(segs.len() * 16);
    for s in segs {
        writeln!(out, "{},{},{},{}", s.a.x, s.a.y, s.b.x, s.b.y).unwrap();
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))
}

fn read_map(path: &str) -> Result<Vec<LineSeg>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut segs = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let nums = parse_csv_numbers(line, 4, "segment coordinates")
            .map_err(|e| format!("{path}:{}: {e}", ln + 1))?;
        segs.push(LineSeg::from_coords(nums[0], nums[1], nums[2], nums[3]));
    }
    if segs.is_empty() {
        return Err(format!("{path} holds no segments"));
    }
    Ok(segs)
}

/// Smallest power-of-two world strictly containing every coordinate.
fn infer_world(segs: &[LineSeg], flags: &HashMap<String, String>) -> Result<Rect, String> {
    if let Some(size) = flags.get("size") {
        let size: u32 = parse_num(size, "--size")?;
        if !size.is_power_of_two() {
            return Err("--size must be a power of two".into());
        }
        return Ok(Rect::from_coords(0.0, 0.0, size as f64, size as f64));
    }
    let max = segs
        .iter()
        .flat_map(|s| [s.a.x, s.a.y, s.b.x, s.b.y])
        .fold(0.0f64, f64::max);
    let side = (max.max(1.0) as u64 + 1).next_power_of_two() as f64;
    Ok(Rect::from_coords(0.0, 0.0, side, side))
}

// ----------------------------------------------------------------------
// Commands
// ----------------------------------------------------------------------

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let kind = get(flags, "kind")?;
    let n: usize = parse_num(get(flags, "n")?, "--n")?;
    let size: u32 = parse_num(get_or(flags, "size", "1024"), "--size")?;
    let seed: u64 = parse_num(get_or(flags, "seed", "42"), "--seed")?;
    let data = match kind {
        "roads" => {
            let cells = (((n as f64) / 1.8).sqrt().ceil() as u32).max(2);
            wl::road_network(cells, size, seed)
        }
        "uniform" => wl::uniform_segments(n, size, (size / 16).max(2), seed),
        "clustered" => wl::clustered_segments(n, 5, (size / 64).max(2), size, seed),
        "rings" => {
            let cells = (((n as f64) / 4.0).sqrt().ceil() as u32).max(1);
            wl::polygon_rings(cells, size.max(cells * 8).next_power_of_two(), seed)
        }
        other => return Err(format!("unknown --kind `{other}`")),
    };
    let out = get_or(flags, "out", "map.csv");
    write_map(out, &data.segs)?;
    println!(
        "wrote {} segments ({}) to {out}",
        data.segs.len(),
        data.name
    );
    Ok(())
}

enum AnyIndex {
    Quad(dp_spatial::quadtree::DpQuadtree),
    Rtree(dp_spatial::rtree::DpRTree),
}

fn build_index(
    machine: &Machine,
    flags: &HashMap<String, String>,
    segs: &[LineSeg],
    world: Rect,
) -> Result<(AnyIndex, String), String> {
    let kind = get_or(flags, "index", "bpmr");
    let depth: usize = parse_num(get_or(flags, "depth", "12"), "--depth")?;
    let capacity: usize = parse_num(get_or(flags, "capacity", "8"), "--capacity")?;
    Ok(match kind {
        "bpmr" => (
            AnyIndex::Quad(build_bucket_pmr(machine, world, segs, capacity, depth)),
            format!("bucket PMR quadtree (b={capacity}, depth<={depth})"),
        ),
        "pm1" => (
            AnyIndex::Quad(build_pm1(machine, world, segs, depth)),
            "PM1 quadtree".into(),
        ),
        "pm2" => (
            AnyIndex::Quad(build_pm2(machine, world, segs, depth)),
            "PM2 quadtree".into(),
        ),
        "pm3" => (
            AnyIndex::Quad(build_pm3(machine, world, segs, depth)),
            "PM3 quadtree".into(),
        ),
        "rtree" | "pack" => {
            let order = get_or(flags, "order", "2,8");
            let parts = parse_csv_numbers(order, 2, "--order")?;
            let (m, mx) = (parts[0] as usize, parts[1] as usize);
            if kind == "pack" {
                (
                    AnyIndex::Rtree(pack_rtree_hilbert(machine, segs, world, mx)),
                    format!("Hilbert-packed R-tree (M={mx})"),
                )
            } else {
                (
                    AnyIndex::Rtree(build_rtree(
                        machine,
                        segs,
                        m,
                        mx,
                        RtreeSplitAlgorithm::Sweep,
                    )),
                    format!("R-tree ({m},{mx}) sweep split"),
                )
            }
        }
        other => return Err(format!("unknown --index `{other}`")),
    })
}

fn cmd_build(flags: &HashMap<String, String>) -> Result<(), String> {
    let segs = read_map(get(flags, "input")?)?;
    let world = infer_world(&segs, flags)?;
    let machine = Machine::parallel();
    let (built, report) = measure_build(&machine, || build_index(&machine, flags, &segs, world));
    let (index, label) = built?;
    println!(
        "built {label} over {} segments in {:?} (world {world})",
        segs.len(),
        report.elapsed
    );
    match index {
        AnyIndex::Quad(t) => {
            let s = t.stats();
            println!(
                "rounds {}   nodes {}   leaves {} ({} empty)   height {}   q-edges {}   truncated {}",
                t.rounds(),
                s.nodes,
                s.leaves,
                s.empty_leaves,
                s.height,
                s.entries,
                t.truncated()
            );
        }
        AnyIndex::Rtree(t) => {
            let s = t.stats();
            let (cov, ov) = t.quality_metrics();
            println!(
                "rounds {}   nodes {}   leaves {}   height {}   coverage {cov:.3e}   overlap {ov:.3e}",
                t.rounds(),
                s.nodes,
                s.leaves,
                s.height
            );
        }
    }
    let ops = machine.stats();
    println!(
        "machine ops: {} scans, {} elementwise, {} permutes, {} sorts",
        ops.scans, ops.elementwise, ops.permutes, ops.sorts
    );
    Ok(())
}

fn cmd_query(flags: &HashMap<String, String>) -> Result<(), String> {
    let segs = read_map(get(flags, "input")?)?;
    let world = infer_world(&segs, flags)?;
    let nums = parse_csv_numbers(get(flags, "window")?, 4, "--window")?;
    let window = Rect::from_coords(
        nums[0].min(nums[2]),
        nums[1].min(nums[3]),
        nums[0].max(nums[2]),
        nums[1].max(nums[3]),
    );
    let machine = Machine::parallel();
    let (index, label) = build_index(&machine, flags, &segs, world)?;
    let hits = match &index {
        AnyIndex::Quad(t) => t.window_query(&window, &segs),
        AnyIndex::Rtree(t) => t.window_query(&window, &segs),
    };
    println!("{label}: {} segments intersect {window}", hits.len());
    // Listing output tolerates a closed pipe (e.g. `| head`).
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for id in hits {
        if writeln!(out, "{id}: {}", segs[id as usize]).is_err() {
            break;
        }
    }
    Ok(())
}

fn cmd_nearest(flags: &HashMap<String, String>) -> Result<(), String> {
    let segs = read_map(get(flags, "input")?)?;
    let _world = infer_world(&segs, flags)?;
    let nums = parse_csv_numbers(get(flags, "point")?, 2, "--point")?;
    let p = Point::new(nums[0], nums[1]);
    let machine = Machine::parallel();
    let tree = build_rtree(&machine, &segs, 2, 8, RtreeSplitAlgorithm::Sweep);
    match tree.nearest(p, &segs) {
        Some((id, d)) => println!(
            "nearest to {p}: segment {id} {} (distance {d:.3})",
            segs[id as usize]
        ),
        None => println!("the map is empty"),
    }
    Ok(())
}

fn cmd_join(flags: &HashMap<String, String>) -> Result<(), String> {
    let a = read_map(get(flags, "a")?)?;
    let b = read_map(get(flags, "b")?)?;
    let capacity: usize = parse_num(get_or(flags, "capacity", "8"), "--capacity")?;
    // Shared world over both maps.
    let all: Vec<LineSeg> = a.iter().chain(b.iter()).copied().collect();
    let world = infer_world(&all, flags)?;
    let machine = Machine::parallel();
    let ta = build_bucket_pmr(&machine, world, &a, capacity, 12);
    let tb = build_bucket_pmr(&machine, world, &b, capacity, 12);
    let pairs = frontier_join(&machine, &ta, &a, &tb, &b)
        .map_err(|e| e.to_string())?
        .pairs;
    println!("{} intersecting pairs", pairs.len());
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (ia, ib) in pairs {
        if writeln!(out, "{ia} x {ib}").is_err() {
            break;
        }
    }
    Ok(())
}
