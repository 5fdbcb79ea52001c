//! README's metric catalogue must name every family the registry
//! exports, so a metric added to the registry cannot go undocumented.

const README: &str = include_str!("../../../README.md");

/// The catalogue table that follows README's "Metric catalogue" line.
fn catalogue() -> &'static str {
    let at = README
        .find("**Metric catalogue**")
        .expect("README has a metric catalogue");
    let table = &README[at..];
    let table = &table[table.find("\n|").expect("catalogue table")..];
    &table[..table.find("\n\n").unwrap_or(table.len())]
}

#[test]
fn readme_catalogue_names_every_exported_family() {
    let table = catalogue();
    let page = bbncg_obs::render_prometheus();
    let families: Vec<&str> = page
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|l| l.split(' ').next().expect("family name"))
        .collect();
    assert!(families.len() >= 30, "{families:?}");
    let missing: Vec<&str> = families
        .iter()
        .copied()
        .filter(|f| !table.contains(&format!("`{f}`")) && !table.contains(&format!("`{f}{{")))
        .collect();
    assert!(
        missing.is_empty(),
        "README's metric catalogue omits {missing:?}"
    );
}
