//! The `kdap stats` surface: catalog statistics (table row counts,
//! per-column cardinality), text-index figures, and session cache
//! counters, rendered as a console table or as JSON.

use kdap_core::Kdap;
use kdap_obs::{json_string, snapshot_json};
use kdap_warehouse::summarize;

/// Human-readable statistics table.
pub fn stats_text(kdap: &Kdap) -> String {
    let s = summarize(kdap.warehouse());
    let idx = kdap.text_index().stats();
    let mut out = format!(
        "warehouse: {} table(s) · {} fact rows · ~{} KB\n",
        s.tables.len(),
        s.fact_rows,
        s.approx_bytes / 1024,
    );
    for t in &s.tables {
        out.push_str(&format!(
            "{}{}  {} row(s) · ~{} KB compressed\n",
            t.name,
            if t.fact { "  [fact]" } else { "" },
            t.rows,
            t.heap_bytes / 1024,
        ));
        for c in &t.columns {
            let range = match (c.min, c.max) {
                (Some(lo), Some(hi)) => format!("  [{lo}..{hi}]"),
                _ => String::new(),
            };
            out.push_str(&format!(
                "  {:<20} {:<6} {:>8} distinct  {:>6} null(s){}{}\n",
                c.name,
                c.value_type,
                c.distinct,
                c.nulls,
                if c.searchable { "  [searchable]" } else { "" },
                range,
            ));
        }
    }
    out.push_str(&format!(
        "text index: {} doc(s) · {} term(s) · {} posting(s) · avg doc len {:.1} · ~{} KB\n",
        idx.docs,
        idx.terms,
        idx.postings,
        idx.avg_doc_len,
        idx.approx_bytes / 1024,
    ));
    // The session cache of explorations, under the name it has always
    // been printed with.
    if let Some(c) = kdap.subspace_cache_counters() {
        out.push_str(&format!(
            "subspace cache: {} hit(s) / {} miss(es) / {} eviction(s)\n",
            c.hits, c.misses, c.evictions
        ));
    }
    if let Some(c) = kdap.semijoin_counters() {
        out.push_str(&format!(
            "semi-join cache: {} hit(s) / {} miss(es) / {} eviction(s)\n",
            c.hits, c.misses, c.evictions
        ));
    }
    let h = kdap.cache_container_histogram();
    out.push_str(&format!(
        "rowset containers: {} array / {} bitmap / {} run\n",
        h.arrays, h.bitmaps, h.runs
    ));
    out.push_str(&format!(
        "kernels: {} active ({} detected: {}){}\n",
        kdap_core::kernel::active_tier().name(),
        kdap_core::kernel::detected_tier().name(),
        kdap_core::kernel::detected_features().join(", "),
        if kdap_core::kernel::simd_disabled_by_env() {
            "  [KDAP_NO_SIMD]"
        } else {
            ""
        },
    ));
    out
}

/// The same statistics as a JSON object (hand-rolled; the workspace
/// carries no serde).
pub fn stats_json(kdap: &Kdap) -> String {
    let s = summarize(kdap.warehouse());
    let idx = kdap.text_index().stats();
    let mut out = String::from("{\n  \"tables\": [\n");
    for (ti, t) in s.tables.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"rows\": {}, \"heap_bytes\": {}, \"fact\": {}, \"columns\": [\n",
            json_string(&t.name),
            t.rows,
            t.heap_bytes,
            t.fact,
        ));
        for (ci, c) in t.columns.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"name\": {}, \"type\": {}, \"distinct\": {}, \"nulls\": {}, \"searchable\": {}{}}}{}\n",
                json_string(&c.name),
                json_string(&c.value_type),
                c.distinct,
                c.nulls,
                c.searchable,
                match (c.min, c.max) {
                    (Some(lo), Some(hi)) => format!(", \"min\": {lo}, \"max\": {hi}"),
                    _ => String::new(),
                },
                if ci + 1 < t.columns.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if ti + 1 < s.tables.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"fact_rows\": {},\n", s.fact_rows));
    out.push_str(&format!("  \"warehouse_bytes\": {},\n", s.approx_bytes));
    out.push_str(&format!(
        "  \"text_index\": {{\"docs\": {}, \"terms\": {}, \"postings\": {}, \"avg_doc_len\": {:.3}, \"bytes\": {}}}",
        idx.docs, idx.terms, idx.postings, idx.avg_doc_len, idx.approx_bytes,
    ));
    if let Some(c) = kdap.subspace_cache_counters() {
        out.push_str(&format!(
            ",\n  \"subspace_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}",
            c.hits, c.misses, c.evictions
        ));
    }
    if let Some(c) = kdap.semijoin_counters() {
        out.push_str(&format!(
            ",\n  \"semijoin_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}",
            c.hits, c.misses, c.evictions
        ));
    }
    let h = kdap.cache_container_histogram();
    out.push_str(&format!(
        ",\n  \"rowset_containers\": {{\"array\": {}, \"bitmap\": {}, \"run\": {}}}",
        h.arrays, h.bitmaps, h.runs
    ));
    out.push_str(&format!(
        ",\n  \"kernel\": {{\"active\": \"{}\", \"detected\": \"{}\", \"features\": [{}], \
         \"no_simd_env\": {}}}",
        kdap_core::kernel::active_tier().name(),
        kdap_core::kernel::detected_tier().name(),
        kdap_core::kernel::detected_features()
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", "),
        kdap_core::kernel::simd_disabled_by_env(),
    ));
    // Session metrics, encoded by the same snapshot encoder the server's
    // `GET /v1/{tenant}/stats` uses — identical shape in both surfaces.
    out.push_str(",\n  \"metrics\": ");
    out.push_str(&snapshot_json(&kdap.obs().metrics_snapshot(), "  "));
    out.push_str("\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdap_datagen::{build_ebiz, EbizScale};

    fn session() -> Kdap {
        let wh = build_ebiz(EbizScale::small(), 7).unwrap();
        Kdap::builder(wh).cache_capacity(8).build().unwrap()
    }

    #[test]
    fn text_lists_tables_columns_and_index() {
        let kdap = session();
        let out = stats_text(&kdap);
        assert!(out.contains("fact rows"), "{out}");
        assert!(out.contains("[fact]"), "{out}");
        assert!(out.contains("distinct"), "{out}");
        assert!(out.contains("[searchable]"), "{out}");
        assert!(out.contains("text index:"), "{out}");
        assert!(out.contains("subspace cache:"), "{out}");
        assert!(out.contains("semi-join cache:"), "{out}");
        assert!(out.contains("KB compressed"), "{out}");
        assert!(out.contains("rowset containers:"), "{out}");
        assert!(out.contains("kernels:"), "{out}");
        assert!(
            out.contains(&format!(
                "{} detected",
                kdap_core::kernel::detected_tier().name()
            )),
            "{out}"
        );
    }

    #[test]
    fn json_is_structured_and_balanced() {
        let kdap = session();
        let out = stats_json(&kdap);
        assert!(out.contains("\"tables\""), "{out}");
        assert!(out.contains("\"fact_rows\""), "{out}");
        assert!(out.contains("\"text_index\""), "{out}");
        assert!(out.contains("\"subspace_cache\""), "{out}");
        assert!(out.contains("\"heap_bytes\""), "{out}");
        assert!(out.contains("\"rowset_containers\""), "{out}");
        assert!(out.contains("\"kernel\""), "{out}");
        assert!(out.contains("\"metrics\""), "{out}");
        assert!(out.contains("\"counters\""), "{out}");
        assert!(out.contains("\"histograms\""), "{out}");
        assert!(
            out.contains(&format!(
                "\"active\": \"{}\"",
                kdap_core::kernel::active_tier().name()
            )),
            "{out}"
        );
        assert_eq!(
            out.matches('{').count(),
            out.matches('}').count(),
            "balanced braces: {out}"
        );
        assert_eq!(out.matches('[').count(), out.matches(']').count());
    }
}
