//! Replays the paper's worked primitive examples (Figs. 8–18 and 29) and
//! prints the vectors in the same layout as the figures, so the output
//! can be checked against the paper side by side.
//!
//! Run with: `cargo run --example paper_figures`

use dp_spatial_suite::scanmodel::ops::{Max, Min, Sum};
use dp_spatial_suite::scanmodel::{Direction, Machine, ScanKind, Segments};

fn row<T: std::fmt::Display>(label: &str, v: &[T]) {
    print!("{label:<28}");
    for x in v {
        print!("{x:>4}");
    }
    println!();
}

fn row_b(label: &str, v: &[bool]) {
    let ints: Vec<u8> = v.iter().map(|&b| b as u8).collect();
    row(label, &ints);
}

fn main() {
    let m = Machine::sequential();

    // ------------------------------------------------------------------
    println!("== Figure 8: segmented scans ==");
    let data: Vec<i64> = vec![3, 1, 2, 1, 0, 1, 2, 2, 1, 0, 3, 3];
    let seg = Segments::from_lengths(&[3, 4, 2, 3]).unwrap();
    let sf: Vec<u8> = seg.flags().iter().map(|&b| b as u8).collect();
    row("data", &data);
    row("sf:segment flag", &sf);
    row(
        "up-scan(data,sf,+,in)",
        &m.scan(&data, &seg, Sum, Direction::Up, ScanKind::Inclusive),
    );
    row(
        "up-scan(data,sf,+,ex)",
        &m.scan(&data, &seg, Sum, Direction::Up, ScanKind::Exclusive),
    );
    row(
        "down-scan(data,sf,+,in)",
        &m.scan(&data, &seg, Sum, Direction::Down, ScanKind::Inclusive),
    );
    row(
        "down-scan(data,sf,+,ex)",
        &m.scan(&data, &seg, Sum, Direction::Down, ScanKind::Exclusive),
    );

    // ------------------------------------------------------------------
    println!("\n== Figure 9: elementwise addition ==");
    let a = vec![0i64, 1, 2, 1, 4, 3, 6, 2, 9, 5];
    let b = vec![4i64, 7, 2, 0, 3, 6, 1, 5, 0, 4];
    row("A", &a);
    row("B", &b);
    row("ew(+,A,B)", &m.zip_map(&a, &b, |x, y| x + y));

    // ------------------------------------------------------------------
    println!("\n== Figure 10: permutation ==");
    let data: Vec<char> = "abcdefgh".chars().collect();
    let index = vec![2usize, 5, 4, 3, 1, 6, 0, 7];
    row("A", &data);
    row("index", &index);
    row("permute(A,index)", &m.permute(&data, &index));

    // ------------------------------------------------------------------
    println!("\n== Figures 13-14: cloning ==");
    let x: Vec<char> = "abcdefg".chars().collect();
    let cf = vec![true, false, false, true, false, false, true];
    let seg1 = Segments::single(7);
    row("X", &x);
    row_b("CF:clone flag", &cf);
    let f1 = m.up_scan(
        &cf.iter().map(|&b| b as i64).collect::<Vec<_>>(),
        Sum,
        ScanKind::Exclusive,
    );
    row("F1=up-scan(CF,+,ex)", &f1);
    let f2: Vec<usize> = f1
        .iter()
        .enumerate()
        .map(|(i, &o)| i + o as usize)
        .collect();
    row("F2=ew(+,P,F1)", &f2);
    let layout = m.clone_layout(&seg1, &cf);
    row("result", &m.apply(&x, &layout));

    // ------------------------------------------------------------------
    println!("\n== Figures 15-16: unshuffling ==");
    let x: Vec<char> = "babaaba".chars().collect();
    let class: Vec<bool> = x.iter().map(|&c| c == 'b').collect();
    let seg1 = Segments::single(7);
    row("X", &x);
    let f1 = m.scan(
        &class.iter().map(|&b| b as i64).collect::<Vec<_>>(),
        &seg1,
        Sum,
        Direction::Up,
        ScanKind::Inclusive,
    );
    row("F1=up-scan(X=b,+,in)", &f1);
    let f2 = m.scan(
        &class.iter().map(|&b| !b as i64).collect::<Vec<_>>(),
        &seg1,
        Sum,
        Direction::Down,
        ScanKind::Inclusive,
    );
    row("F2=down-scan(X=a,+,in)", &f2);
    let layout = m.unshuffle_layout(&seg1, &class);
    row("F3:new positions", &layout.target);
    row("permute(X,F3)", &m.apply_unshuffle(&x, &layout));

    // ------------------------------------------------------------------
    println!("\n== Figures 17-18: duplicate deletion ==");
    let x: Vec<char> = "aabcccde".chars().collect();
    let seg1 = Segments::single(8);
    row("X (sorted)", &x);
    let df: Vec<bool> = (0..x.len()).map(|i| i > 0 && x[i] == x[i - 1]).collect();
    row_b("DF:duplicate flag", &df);
    let f1 = m.up_scan(
        &df.iter().map(|&b| b as i64).collect::<Vec<_>>(),
        Sum,
        ScanKind::Exclusive,
    );
    row("F1=up-scan(DF,+,ex)", &f1);
    let (out, _) = m.delete_duplicates(&x, &seg1);
    row("result", &out);

    // ------------------------------------------------------------------
    println!("\n== Figure 19: node capacity check ==");
    let seg = Segments::from_lengths(&[3, 4, 2]).unwrap();
    let sf: Vec<u8> = seg.flags().iter().map(|&b| b as u8).collect();
    row("sf:segment flag", &sf);
    row("down-scan(1,sf,+,in)", &m.capacity_check_scan(&seg));
    row("node counts", &m.segment_counts(&seg));

    // ------------------------------------------------------------------
    println!("\n== Figure 29: R-tree sweep split scans ==");
    // Boxes A-D with left sides 10,20,40,60 and right sides 30,50,70,80.
    let ls = vec![10.0f64, 20.0, 40.0, 60.0];
    let rs = vec![30.0f64, 50.0, 70.0, 80.0];
    let seg4 = Segments::single(4);
    let fmt = |v: Vec<f64>| -> Vec<i64> { v.iter().map(|&x| x as i64).collect() };
    row("ls:left side", &fmt(ls.clone()));
    row("rs:right side", &fmt(rs.clone()));
    row(
        "L Bbox left side",
        &fmt(m.scan(&ls, &seg4, Min, Direction::Up, ScanKind::Inclusive)),
    );
    row(
        "L Bbox right side",
        &fmt(m.scan(&rs, &seg4, Max, Direction::Up, ScanKind::Inclusive)),
    );
    // Downward exclusive scans; the identities at the final lane are
    // printed as '-' by the paper.
    let rbl = m.scan(&ls, &seg4, Min, Direction::Down, ScanKind::Exclusive);
    let rbr = m.scan(&rs, &seg4, Max, Direction::Down, ScanKind::Exclusive);
    let show = |v: &[f64]| -> Vec<String> {
        v.iter()
            .map(|&x| {
                if x.is_finite() {
                    format!("{}", x as i64)
                } else {
                    "-".to_string()
                }
            })
            .collect()
    };
    row("R Bbox left side", &show(&rbl));
    row("R Bbox right side", &show(&rbr));

    println!("\nok.");
}
