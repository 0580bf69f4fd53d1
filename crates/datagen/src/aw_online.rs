//! The AW_ONLINE warehouse: the Internet-sales half of the AdventureWorks
//! data warehouse the paper evaluates on (§6.1).
//!
//! Shape matches the paper's description: **5 dimensions, 10 tables,
//! three hierarchical dimensions**, one fact table with 60k+ records at
//! [`Scale::full`], and more than 20 full-text searchable attribute
//! domains:
//!
//! * Customer — DimCustomer → DimGeography → DimStateProvince, with the
//!   Country → StateProvince → City hierarchy and YearlyIncome;
//! * Product — DimProduct → DimProductSubcategory → DimProductCategory,
//!   with the Category → Subcategory → Product hierarchy, DealerPrice and
//!   ListPrice;
//! * Date — DimDate with the Year → Quarter → Month hierarchy;
//! * Promotion, Currency — flat.

use kdap_warehouse::{AttrKind, Value, ValueType, Warehouse, WarehouseBuilder, WarehouseError};

use crate::common::{
    add_currency_table, add_date_table, add_geography_tables, add_product_tables,
    add_promotion_table, Scale,
};
use crate::rng::Sampler;
use crate::vocab;

/// Builds AW_ONLINE at the given scale, deterministically from `seed`.
pub fn build_aw_online(scale: Scale, seed: u64) -> Result<Warehouse, WarehouseError> {
    let mut s = Sampler::new(seed);
    let mut b = WarehouseBuilder::new();

    let n_geo = add_geography_tables(&mut b)?;
    let n_products = add_product_tables(&mut b, &mut s, scale.products)?;
    let years = [2001i64, 2002, 2003];
    let n_dates = add_date_table(&mut b, &years)?;
    let n_promos = add_promotion_table(&mut b, &mut s)?;
    let n_currencies = add_currency_table(&mut b)?;

    b.table(
        "DimCustomer",
        &[
            ("CustomerKey", ValueType::Int, false),
            ("FirstName", ValueType::Str, true),
            ("LastName", ValueType::Str, true),
            ("EmailAddress", ValueType::Str, true),
            ("AddressLine1", ValueType::Str, true),
            ("Occupation", ValueType::Str, true),
            ("Education", ValueType::Str, true),
            ("YearlyIncome", ValueType::Float, false),
            ("GeographyKey", ValueType::Int, false),
        ],
    )?;
    for ck in 1..=scale.customers as i64 {
        let first = *s.pick(vocab::FIRST_NAMES);
        let last = *s.pick(vocab::LAST_NAMES);
        let email = format!(
            "{}{}@adventure-works.com",
            first.to_ascii_lowercase(),
            ck % 100
        );
        let address = format!("{} {}", s.int(1, 9899), s.pick(vocab::STREETS));
        let occupation = *s.pick(vocab::OCCUPATIONS);
        let education = *s.pick(vocab::EDUCATION);
        // AdventureWorks-style income: multiples of 10k, skewed low.
        let income = (s.skewed_index(17) as f64 + 1.0) * 10_000.0;
        let geo = s.int(1, n_geo as i64);
        b.row(
            "DimCustomer",
            vec![
                ck.into(),
                first.into(),
                last.into(),
                email.into(),
                address.into(),
                occupation.into(),
                education.into(),
                income.into(),
                geo.into(),
            ],
        )?;
    }

    b.table(
        "FactInternetSales",
        &[
            ("SalesKey", ValueType::Int, false),
            ("CustomerKey", ValueType::Int, false),
            ("ProductKey", ValueType::Int, false),
            ("DateKey", ValueType::Int, false),
            ("PromotionKey", ValueType::Int, false),
            ("CurrencyKey", ValueType::Int, false),
            ("OrderQuantity", ValueType::Int, false),
            ("UnitPrice", ValueType::Float, false),
        ],
    )?;
    for fk in 1..=scale.facts as i64 {
        let customer = s.skewed_index(scale.customers) as i64 + 1;
        let product = s.skewed_index(n_products) as i64 + 1;
        let date = s.int(1, n_dates as i64);
        // Most sales run on "No Discount" (promotion key 1).
        let promotion = if s.chance(0.8) {
            1
        } else {
            s.int(2, n_promos as i64)
        };
        let currency = s.int(1, n_currencies as i64);
        let qty = 1 + s.skewed_index(4) as i64;
        let price = (s.float(3.0, 2400.0) * 100.0).round() / 100.0;
        b.row(
            "FactInternetSales",
            vec![
                fk.into(),
                customer.into(),
                product.into(),
                date.into(),
                promotion.into(),
                currency.into(),
                qty.into(),
                Value::Float(price),
            ],
        )?;
    }

    b.edge(
        "FactInternetSales.CustomerKey",
        "DimCustomer.CustomerKey",
        None,
        Some("Customer"),
    )?;
    b.edge(
        "DimCustomer.GeographyKey",
        "DimGeography.GeographyKey",
        None,
        None,
    )?;
    b.edge(
        "DimGeography.StateKey",
        "DimStateProvince.StateKey",
        None,
        None,
    )?;
    b.edge(
        "FactInternetSales.ProductKey",
        "DimProduct.ProductKey",
        None,
        Some("Product"),
    )?;
    b.edge(
        "DimProduct.SubcategoryKey",
        "DimProductSubcategory.SubcategoryKey",
        None,
        None,
    )?;
    b.edge(
        "DimProductSubcategory.CategoryKey",
        "DimProductCategory.CategoryKey",
        None,
        None,
    )?;
    b.edge(
        "FactInternetSales.DateKey",
        "DimDate.DateKey",
        None,
        Some("Date"),
    )?;
    b.edge(
        "FactInternetSales.PromotionKey",
        "DimPromotion.PromotionKey",
        None,
        Some("Promotion"),
    )?;
    b.edge(
        "FactInternetSales.CurrencyKey",
        "DimCurrency.CurrencyKey",
        None,
        Some("Currency"),
    )?;

    b.dimension(
        "Customer",
        &["DimCustomer", "DimGeography", "DimStateProvince"],
        vec![(
            "CustomerGeography",
            vec![
                "DimStateProvince.CountryRegionName",
                "DimStateProvince.StateProvinceName",
                "DimGeography.City",
            ],
        )],
        vec![
            ("DimCustomer.Occupation", AttrKind::Categorical),
            ("DimCustomer.Education", AttrKind::Categorical),
            ("DimCustomer.YearlyIncome", AttrKind::Numerical),
            ("DimGeography.City", AttrKind::Categorical),
            ("DimStateProvince.StateProvinceName", AttrKind::Categorical),
            ("DimStateProvince.CountryRegionName", AttrKind::Categorical),
        ],
    )?;
    b.dimension(
        "Product",
        &["DimProduct", "DimProductSubcategory", "DimProductCategory"],
        vec![(
            "ProductCategories",
            vec![
                "DimProductCategory.CategoryName",
                "DimProductSubcategory.ProductSubcategoryName",
                "DimProduct.EnglishProductName",
            ],
        )],
        vec![
            (
                "DimProductSubcategory.ProductSubcategoryName",
                AttrKind::Categorical,
            ),
            ("DimProductCategory.CategoryName", AttrKind::Categorical),
            ("DimProduct.ModelName", AttrKind::Categorical),
            ("DimProduct.Color", AttrKind::Categorical),
            ("DimProduct.DealerPrice", AttrKind::Numerical),
            ("DimProduct.ListPrice", AttrKind::Numerical),
        ],
    )?;
    b.dimension(
        "Date",
        &["DimDate"],
        vec![(
            "Calendar",
            vec![
                "DimDate.CalendarYear",
                "DimDate.CalendarQuarter",
                "DimDate.MonthName",
            ],
        )],
        vec![
            ("DimDate.MonthName", AttrKind::Categorical),
            ("DimDate.CalendarYear", AttrKind::Categorical),
        ],
    )?;
    b.dimension(
        "Promotion",
        &["DimPromotion"],
        vec![],
        vec![
            ("DimPromotion.PromotionName", AttrKind::Categorical),
            ("DimPromotion.PromotionType", AttrKind::Categorical),
        ],
    )?;
    b.dimension(
        "Currency",
        &["DimCurrency"],
        vec![],
        vec![("DimCurrency.CurrencyName", AttrKind::Categorical)],
    )?;
    b.fact("FactInternetSales")?;
    b.measure_product(
        "SalesRevenue",
        "FactInternetSales.UnitPrice",
        "FactInternetSales.OrderQuantity",
    )?;
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper_description() {
        let wh = build_aw_online(Scale::small(), 42).unwrap();
        assert_eq!(wh.tables().len(), 10, "10 tables");
        assert_eq!(wh.schema().dimensions().len(), 5, "5 dimensions");
        let hierarchical = wh
            .schema()
            .dimensions()
            .iter()
            .filter(|d| !d.hierarchies.is_empty())
            .count();
        assert_eq!(hierarchical, 3, "3 hierarchical dimensions");
        let searchable = wh.searchable_columns().count();
        assert!(searchable > 20, "got {searchable} searchable domains");
    }

    #[test]
    fn full_scale_exceeds_sixty_thousand_facts() {
        // Scale numbers only; actually building full scale is exercised by
        // the experiment binaries.
        assert!(Scale::full().facts > 60_000);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = build_aw_online(Scale::small(), 7).unwrap();
        let b = build_aw_online(Scale::small(), 7).unwrap();
        assert_eq!(a.fact_rows(), b.fact_rows());
        let ta = a.table(a.table_id("DimCustomer").unwrap());
        let tb = b.table(b.table_id("DimCustomer").unwrap());
        for row in [0, 10, 100] {
            assert_eq!(ta.row(row), tb.row(row));
        }
    }

    #[test]
    fn referential_integrity_holds() {
        // finish() runs the FK check; reaching here means it passed. Spot
        // check a join anyway.
        let wh = build_aw_online(Scale::small(), 42).unwrap();
        let fact = wh.table(wh.table_id("FactInternetSales").unwrap());
        assert_eq!(fact.nrows(), Scale::small().facts);
        let cust_col = wh.column(wh.col_ref("FactInternetSales", "CustomerKey").unwrap());
        let max_key = (0..fact.nrows())
            .filter_map(|r| cust_col.get_int(r))
            .max()
            .unwrap();
        assert!(max_key <= Scale::small().customers as i64);
    }

    #[test]
    fn ambiguity_seeds_present_in_data() {
        let wh = build_aw_online(Scale::small(), 42).unwrap();
        let addr = wh.col_ref("DimCustomer", "AddressLine1").unwrap();
        let dict = wh.column(addr).dict().unwrap();
        assert!(
            dict.iter().any(|(_, v)| v.contains("California Street")),
            "California street addresses seeded"
        );
        let state = wh.col_ref("DimStateProvince", "StateProvinceName").unwrap();
        assert!(wh
            .column(state)
            .dict()
            .unwrap()
            .code_of("California")
            .is_some());
    }

    #[test]
    fn measure_evaluates() {
        let wh = build_aw_online(Scale::small(), 42).unwrap();
        let m = wh.schema().measure_by_name("SalesRevenue").unwrap().clone();
        let v = wh.eval_measure(&m, 0).unwrap();
        assert!(v > 0.0);
    }
}
