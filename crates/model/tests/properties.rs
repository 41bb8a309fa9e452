//! Property tests for the model crate: resource-name structure,
//! relatives expansion invariants, and the pr-filter matching rule
//! checked against its literal ∀∃ definition. Cases are drawn from a
//! seeded generator; a failure prints the case seed that replays it.

use perftrack_model::prelude::*;
use perftrack_workloads::rng::{check_cases, Rng};

/// A small random machine tree as (name, type) pairs in
/// parent-before-child order.
fn arb_tree(rng: &mut Rng) -> Vec<(String, String)> {
    let (machines, nodes, procs) = (
        rng.gen_range(1usize..4),
        rng.gen_range(1usize..4),
        rng.gen_range(1usize..4),
    );
    let mut v = Vec::new();
    for m in 0..machines {
        v.push((format!("/g{m}"), "grid".to_string()));
        v.push((format!("/g{m}/mach{m}"), "grid/machine".to_string()));
        v.push((
            format!("/g{m}/mach{m}/part"),
            "grid/machine/partition".to_string(),
        ));
        for n in 0..nodes {
            v.push((
                format!("/g{m}/mach{m}/part/n{n}"),
                "grid/machine/partition/node".to_string(),
            ));
            for p in 0..procs {
                v.push((
                    format!("/g{m}/mach{m}/part/n{n}/p{p}"),
                    "grid/machine/partition/node/processor".to_string(),
                ));
            }
        }
    }
    v
}

fn repo_from(tree: &[(String, String)]) -> (TypeRegistry, ResourceRepo) {
    let reg = TypeRegistry::with_base_types();
    let mut repo = ResourceRepo::new();
    for (name, ty) in tree {
        repo.add(&reg, name, ty).unwrap();
    }
    (reg, repo)
}

/// A random tree's repository and the name of one resource picked from it.
fn repo_and_seed(rng: &mut Rng) -> (ResourceRepo, ResourceName) {
    let (_, repo) = repo_from(&arb_tree(rng));
    let all: Vec<&Resource> = repo.all().collect();
    let seed = all[rng.gen_range(0..all.len())].name.clone();
    (repo, seed)
}

/// `count` path segments of 1 to `max_len` characters from `[a-z0-9]`.
fn arb_segments(rng: &mut Rng, count: std::ops::Range<usize>, max_len: usize) -> Vec<String> {
    (0..rng.gen_range(count))
        .map(|_| rng.gen_string(b"abcdefghijklmnopqrstuvwxyz0123456789", 1..max_len + 1))
        .collect()
}

/// Descendant expansion equals the name-prefix definition.
#[test]
fn descendants_equal_prefix_closure() {
    check_cases(0x6d0d_0100, 64, |rng| {
        let (repo, seed) = repo_and_seed(rng);
        let family = ResourceFilter::by_name(seed.as_str())
            .relatives(Relatives::Descendants)
            .apply(&repo);
        for r in repo.all() {
            let is_member = family.contains(&r.name);
            let should = r.name == seed || r.name.is_descendant_of(&seed);
            assert_eq!(is_member, should, "{:?} vs seed {:?}", r.name, seed);
        }
    });
}

/// Ancestor expansion contains exactly the name's prefixes.
#[test]
fn ancestors_equal_prefixes() {
    check_cases(0x6d0d_0200, 64, |rng| {
        let (repo, seed) = repo_and_seed(rng);
        let family = ResourceFilter::by_name(seed.as_str())
            .relatives(Relatives::Ancestors)
            .apply(&repo);
        let expected: std::collections::BTreeSet<ResourceName> = std::iter::once(seed.clone())
            .chain(seed.ancestors())
            .collect();
        assert_eq!(family.members, expected);
    });
}

/// `Both` is exactly the union of Ancestors and Descendants.
#[test]
fn both_is_union() {
    check_cases(0x6d0d_0300, 64, |rng| {
        let (repo, seed) = repo_and_seed(rng);
        let seed = seed.base_name().to_string();
        let f = |r: Relatives| {
            ResourceFilter::by_name(&seed)
                .relatives(r)
                .apply(&repo)
                .members
        };
        let both = f(Relatives::Both);
        let union: std::collections::BTreeSet<_> = f(Relatives::Ancestors)
            .union(&f(Relatives::Descendants))
            .cloned()
            .collect();
        assert_eq!(both, union);
    });
}

/// The pr-filter matching rule equals its ∀∃ definition, applied
/// literally.
#[test]
fn matching_rule_definition() {
    check_cases(0x6d0d_0400, 64, |rng| {
        let (_, repo) = repo_from(&arb_tree(rng));
        let all: Vec<&Resource> = repo.all().collect();
        let filters: Vec<ResourceFilter> = (0..rng.gen_range(1..4))
            .map(|_| ResourceFilter::by_name(all[rng.gen_range(0..all.len())].name.as_str()))
            .collect();
        let prf = PrFilter::from_filters(&repo, &filters);
        let context: Vec<ResourceName> = (0..rng.gen_range(1..4))
            .map(|_| all[rng.gen_range(0..all.len())].name.clone())
            .collect();
        let got = prf.matches_context(context.iter());
        // Literal definition: ∀ R ∈ PRF: ∃ r ∈ C: r ∈ R.
        let expected = prf
            .families
            .iter()
            .all(|fam| context.iter().any(|r| fam.contains(r)));
        assert_eq!(got, expected);
    });
}

/// Resource names survive a parse/display roundtrip and ancestors
/// count matches depth.
#[test]
fn resource_name_structure() {
    check_cases(0x6d0d_0500, 64, |rng| {
        let segments = arb_segments(rng, 1..6, 8);
        let raw = format!("/{}", segments.join("/"));
        let name = ResourceName::new(&raw).unwrap();
        assert_eq!(name.as_str(), raw.as_str());
        assert_eq!(name.depth(), segments.len());
        assert_eq!(name.ancestors().len(), segments.len() - 1);
        assert_eq!(name.base_name(), segments.last().unwrap().as_str());
        // Every ancestor is a strict prefix.
        for a in name.ancestors() {
            assert!(name.is_descendant_of(&a));
            assert!(!a.is_descendant_of(&name));
        }
    });
}

/// Shorthand matching: a name always matches its own base name, its
/// full name, and every suffix of whole segments.
#[test]
fn shorthand_matches_whole_segment_suffixes() {
    check_cases(0x6d0d_0600, 64, |rng| {
        let segments = arb_segments(rng, 1..5, 6);
        let raw = format!("/{}", segments.join("/"));
        let name = ResourceName::new(&raw).unwrap();
        assert!(name.matches_shorthand(&raw));
        for start in 0..segments.len() {
            let suffix = segments[start..].join("/");
            assert!(name.matches_shorthand(&suffix), "suffix {suffix:?}");
        }
        // A partial-segment suffix must not match, unless it happens to
        // equal some real whole segment.
        let base = segments.last().unwrap();
        if base.len() > 1 {
            let partial = &base[1..];
            if !segments.iter().any(|s| s == partial) {
                assert!(!name.matches_shorthand(partial));
            }
        }
    });
}
