//! The integer solver answers every system of the recorded corpus
//! (`tests/fixtures/solver-corpus.txt`: what the benchmark's seven programs
//! ask on their way through the pipeline) exactly as the solver it replaced
//! did — `Empty`, `NonEmpty` and `Unknown` alike, so no legality check and
//! no `certain` flag can move.

use ft_poly::{Constraint, LinExpr, Sat, System};

fn parse_system(text: &str) -> System {
    let mut sys = System::new();
    for c in text.split(';').filter(|c| !c.is_empty()) {
        let mut parts = c.split(' ');
        let head = parts.next().expect("an op and a constant");
        let (op, constant) = head.split_at(1);
        let mut e = LinExpr::constant(constant.parse().expect("an integer constant"));
        for term in parts {
            let (name, coeff) = term.rsplit_once(':').expect("name:coeff");
            e = e + LinExpr::term(name, coeff.parse().expect("an integer coefficient"));
        }
        sys.push(match op {
            "=" => Constraint::eq0(e),
            ">" => Constraint::ge0(e),
            other => panic!("unknown constraint sense `{other}`"),
        });
    }
    sys
}

#[test]
fn every_recorded_answer_is_unchanged() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/solver-corpus.txt");
    let text = std::fs::read_to_string(path).expect("the corpus is committed");
    let mut counts = [0usize; 3];
    for (k, line) in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).enumerate() {
        let (answer, system) = line.split_once('|').expect("answer|system");
        let want = match answer {
            "E" => Sat::Empty,
            "N" => Sat::NonEmpty,
            "U" => Sat::Unknown,
            other => panic!("unknown answer `{other}`"),
        };
        let sys = parse_system(system);
        assert_eq!(sys.satisfiable(), want, "system {k}: {sys}");
        counts[want as usize] += 1;
    }
    println!(
        "solver corpus: {} empty, {} non-empty, {} unknown",
        counts[0], counts[1], counts[2]
    );
    assert!(counts.iter().sum::<usize>() > 0, "the corpus is empty");
}
