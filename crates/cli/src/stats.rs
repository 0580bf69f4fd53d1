//! The `kdap stats` surface: catalog statistics (table row counts,
//! per-column cardinality), text-index figures, and session cache
//! counters, rendered as a console table or as JSON.

use kdap_core::Kdap;
use kdap_obs::{JsonWriter, Layout};
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
            // An Int column's encoding: its chunks' offset widths.
            let packed = if c.chunk_bits.is_empty() {
                String::new()
            } else {
                let bits: Vec<String> = c.chunk_bits.iter().map(u8::to_string).collect();
                format!("  [{}-bit · {} B]", bits.join("/"), c.heap_bytes)
            };
            out.push_str(&format!(
                "  {:<20} {:<6} {:>8} distinct  {:>6} null(s){}{}{}\n",
                c.name,
                c.value_type,
                c.distinct,
                c.nulls,
                if c.searchable { "  [searchable]" } else { "" },
                range,
                packed,
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
        "cpu features: {}\n",
        kdap_core::kernel::detected_features().join(", "),
    ));
    out
}

/// The same statistics as a JSON object.
pub fn stats_json(kdap: &Kdap) -> String {
    let s = summarize(kdap.warehouse());
    let idx = kdap.text_index().stats();
    let mut out = String::new();
    JsonWriter::new(&mut out).object(Layout::Block, |w| {
        w.key("tables").array(Layout::Block, |w| {
            for t in &s.tables {
                w.object(Layout::Inline, |w| {
                    w.key("name").str(&t.name).key("rows").int(t.rows);
                    w.key("heap_bytes")
                        .int(t.heap_bytes)
                        .key("fact")
                        .bool(t.fact);
                    w.key("columns").array(Layout::Block, |w| {
                        for c in &t.columns {
                            w.object(Layout::Inline, |w| {
                                w.key("name").str(&c.name).key("type").str(&c.value_type);
                                w.key("distinct").int(c.distinct).key("nulls").int(c.nulls);
                                w.key("searchable").bool(c.searchable);
                                if let (Some(lo), Some(hi)) = (c.min, c.max) {
                                    w.key("min").f64(lo).key("max").f64(hi);
                                }
                                if !c.chunk_bits.is_empty() {
                                    w.key("chunk_bits").array(Layout::Inline, |w| {
                                        for &b in &c.chunk_bits {
                                            w.int(usize::from(b));
                                        }
                                    });
                                    w.key("bytes").int(c.heap_bytes);
                                }
                            });
                        }
                    });
                });
            }
        });
        w.key("fact_rows").int(s.fact_rows);
        w.key("warehouse_bytes").int(s.approx_bytes);
        w.key("text_index").object(Layout::Inline, |w| {
            w.key("docs").int(idx.docs).key("terms").int(idx.terms);
            w.key("postings").int(idx.postings);
            w.key("avg_doc_len").fixed(idx.avg_doc_len, 3);
            w.key("bytes").int(idx.approx_bytes);
        });
        for (key, counters) in [
            ("subspace_cache", kdap.subspace_cache_counters()),
            ("semijoin_cache", kdap.semijoin_counters()),
        ] {
            if let Some(c) = counters {
                w.key(key).object(Layout::Inline, |w| {
                    w.key("hits").int(c.hits).key("misses").int(c.misses);
                    w.key("evictions").int(c.evictions);
                });
            }
        }
        let h = kdap.cache_container_histogram();
        w.key("rowset_containers").object(Layout::Inline, |w| {
            w.key("array").int(h.arrays).key("bitmap").int(h.bitmaps);
            w.key("run").int(h.runs);
        });
        w.key("cpu_features").array(Layout::Inline, |w| {
            for f in kdap_core::kernel::detected_features() {
                w.str(f);
            }
        });
        // Session metrics, in the same encoding the server's
        // `GET /v1/{tenant}/stats` uses — identical shape in both surfaces.
        w.key("metrics");
        kdap.obs().metrics_snapshot().write_json(w);
    });
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
        // Every Int column prints its chunk widths and bytes.
        assert!(out.contains("-bit · "), "{out}");
        assert!(out.contains("rowset containers:"), "{out}");
        assert!(out.contains("cpu features:"), "{out}");
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
        assert!(out.contains("\"chunk_bits\""), "{out}");
        assert!(out.contains("\"rowset_containers\""), "{out}");
        assert!(out.contains("\"cpu_features\""), "{out}");
        assert!(out.contains("\"metrics\""), "{out}");
        assert!(out.contains("\"counters\""), "{out}");
        assert!(out.contains("\"histograms\""), "{out}");
        assert_eq!(
            out.matches('{').count(),
            out.matches('}').count(),
            "balanced braces: {out}"
        );
        assert_eq!(out.matches('[').count(), out.matches(']').count());
    }
}
