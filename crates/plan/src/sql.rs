//! SQL text rendering of a [`QuerySpec`]. The text-based template learners
//! (bag-of-words / text-mining / embeddings, paper §IV-C) consume this output;
//! it is also what the examples print and what the SQL ingestion front-end
//! (`wmp_sql`) parses back.
//!
//! Rendering is canonical ANSI and *lossless* with respect to the query
//! structure: identifiers that would not survive a parse round trip (reserved
//! words, upper-case spellings, non-word characters) are `"`-quoted, `COUNT`
//! keeps its column argument, and `AS` is elided exactly when the alias
//! equals the table name (which the parser reconstructs by defaulting the
//! alias to the table).

use std::fmt::Write as _;

use crate::query::{AggFunc, CmpOp, QuerySpec};

/// Words with clause or operator meaning in the supported SELECT grammar.
/// Identifiers spelled like one are quoted so they always read back as
/// identifiers.
const RESERVED: [&str; 45] = [
    "ALL",
    "AND",
    "AS",
    "ASC",
    "AVG",
    "BETWEEN",
    "BY",
    "CAST",
    "COUNT",
    "CROSS",
    "DATE",
    "DESC",
    "DISTINCT",
    "EXISTS",
    "FETCH",
    "FIRST",
    "FROM",
    "FULL",
    "GROUP",
    "HAVING",
    "IN",
    "INNER",
    "INTERVAL",
    "IS",
    "JOIN",
    "LEFT",
    "LIKE",
    "LIMIT",
    "MAX",
    "MIN",
    "NOT",
    "NULL",
    "OFFSET",
    "ON",
    "ONLY",
    "OR",
    "ORDER",
    "OUTER",
    "RIGHT",
    "ROW",
    "ROWS",
    "SELECT",
    "SUM",
    "TIME",
    "TIMESTAMP",
];

/// True when `ident` must be `"`-quoted to survive an ANSI parse round trip:
/// it is empty, not entirely lower-case (unquoted ANSI identifiers fold),
/// not shaped like a plain word, or reserved.
fn needs_quoting(ident: &str) -> bool {
    if ident.is_empty() || ident.chars().any(|c| c.is_ascii_uppercase()) {
        return true;
    }
    let mut chars = ident.chars();
    let head_ok = chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    if !head_ok || !ident.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return true;
    }
    RESERVED.iter().any(|kw| ident.eq_ignore_ascii_case(kw))
}

/// Renders `ident` as ANSI SQL, `"`-quoting (with embedded quotes doubled)
/// only when a bare spelling would be ambiguous or case-folded.
pub fn quote_ident(ident: &str) -> String {
    if !needs_quoting(ident) {
        return ident.to_string();
    }
    let mut out = String::with_capacity(ident.len() + 2);
    out.push('"');
    for c in ident.chars() {
        if c == '"' {
            out.push('"');
        }
        out.push(c);
    }
    out.push('"');
    out
}

fn qualified(alias: &str, column: &str) -> String {
    format!("{}.{}", quote_ident(alias), quote_ident(column))
}

/// Renders a query spec as a SQL `SELECT` statement.
pub fn render_sql(q: &QuerySpec) -> String {
    let mut s = String::with_capacity(256);
    s.push_str("SELECT ");
    if q.distinct {
        s.push_str("DISTINCT ");
    }
    let mut select_items: Vec<String> = Vec::new();
    for (alias, col) in &q.group_by {
        select_items.push(qualified(alias, col));
    }
    for agg in &q.aggregates {
        if agg.func == AggFunc::Count && agg.column.is_empty() {
            select_items.push("COUNT(*)".to_string());
        } else {
            select_items.push(format!(
                "{}({})",
                agg.func.sql(),
                qualified(&agg.table_alias, &agg.column)
            ));
        }
    }
    if select_items.is_empty() {
        // Project the first table's columns.
        select_items.push(match q.tables.first() {
            Some(t) => format!("{}.*", quote_ident(&t.alias)),
            None => "*".to_string(),
        });
    }
    s.push_str(&select_items.join(", "));

    s.push_str(" FROM ");
    let froms: Vec<String> = q
        .tables
        .iter()
        .map(|t| {
            if t.table == t.alias {
                quote_ident(&t.table)
            } else {
                format!("{} AS {}", quote_ident(&t.table), quote_ident(&t.alias))
            }
        })
        .collect();
    s.push_str(&froms.join(", "));

    let mut conds: Vec<String> = Vec::new();
    for j in &q.joins {
        conds.push(format!(
            "{} = {}",
            qualified(&j.left_alias, &j.left_col),
            qualified(&j.right_alias, &j.right_col)
        ));
    }
    for p in &q.predicates {
        let col = qualified(&p.table_alias, &p.column);
        match &p.op {
            CmpOp::InList(_) => {
                conds.push(format!("{col} IN ({})", p.literal));
            }
            CmpOp::Between => {
                conds.push(format!("{col} BETWEEN {}", p.literal));
            }
            op => {
                conds.push(format!("{col} {} {}", op.sql(), p.literal));
            }
        }
    }
    if !conds.is_empty() {
        s.push_str(" WHERE ");
        s.push_str(&conds.join(" AND "));
    }

    if !q.group_by.is_empty() {
        s.push_str(" GROUP BY ");
        let cols: Vec<String> = q.group_by.iter().map(|(a, c)| qualified(a, c)).collect();
        s.push_str(&cols.join(", "));
    }
    if !q.order_by.is_empty() {
        s.push_str(" ORDER BY ");
        let cols: Vec<String> = q.order_by.iter().map(|(a, c)| qualified(a, c)).collect();
        s.push_str(&cols.join(", "));
    }
    if let Some(n) = q.limit {
        let _ = write!(s, " FETCH FIRST {n} ROWS ONLY");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Aggregate, JoinEdge, Predicate, TableRef};

    fn join_query() -> QuerySpec {
        QuerySpec {
            id: 7,
            tables: vec![TableRef::new("orders", "o"), TableRef::new("customer", "c")],
            joins: vec![JoinEdge {
                left_alias: "o".into(),
                left_col: "o_cust".into(),
                right_alias: "c".into(),
                right_col: "c_id".into(),
            }],
            predicates: vec![Predicate {
                table_alias: "c".into(),
                column: "c_nation".into(),
                op: CmpOp::Eq,
                literal: "'CA'".into(),
                sel_est: 0.04,
                sel_true: 0.05,
            }],
            group_by: vec![("c".into(), "c_nation".into())],
            aggregates: vec![Aggregate {
                func: AggFunc::Sum,
                table_alias: "o".into(),
                column: "o_total".into(),
            }],
            order_by: vec![("c".into(), "c_nation".into())],
            distinct: false,
            limit: Some(100),
        }
    }

    #[test]
    fn renders_full_query_shape() {
        let sql = render_sql(&join_query());
        assert!(
            sql.starts_with("SELECT c.c_nation, SUM(o.o_total) FROM orders AS o, customer AS c")
        );
        assert!(sql.contains("WHERE o.o_cust = c.c_id AND c.c_nation = 'CA'"));
        assert!(sql.contains("GROUP BY c.c_nation"));
        assert!(sql.contains("ORDER BY c.c_nation"));
        assert!(sql.ends_with("FETCH FIRST 100 ROWS ONLY"));
    }

    #[test]
    fn renders_count_star_and_distinct() {
        let q = QuerySpec {
            tables: vec![TableRef::plain("item")],
            aggregates: vec![Aggregate {
                func: AggFunc::Count,
                table_alias: "item".into(),
                column: "".into(),
            }],
            distinct: true,
            ..QuerySpec::default()
        };
        let sql = render_sql(&q);
        assert_eq!(sql, "SELECT DISTINCT COUNT(*) FROM item");
    }

    #[test]
    fn count_with_a_column_keeps_it() {
        let q = QuerySpec {
            tables: vec![TableRef::plain("item")],
            aggregates: vec![Aggregate {
                func: AggFunc::Count,
                table_alias: "item".into(),
                column: "i_id".into(),
            }],
            ..QuerySpec::default()
        };
        assert_eq!(render_sql(&q), "SELECT COUNT(item.i_id) FROM item");
    }

    #[test]
    fn renders_in_and_between() {
        let q = QuerySpec {
            tables: vec![TableRef::plain("t")],
            predicates: vec![
                Predicate {
                    table_alias: "t".into(),
                    column: "a".into(),
                    op: CmpOp::InList(2),
                    literal: "1, 2".into(),
                    sel_est: 0.1,
                    sel_true: 0.1,
                },
                Predicate {
                    table_alias: "t".into(),
                    column: "b".into(),
                    op: CmpOp::Between,
                    literal: "5 AND 10".into(),
                    sel_est: 0.1,
                    sel_true: 0.1,
                },
            ],
            ..QuerySpec::default()
        };
        let sql = render_sql(&q);
        assert!(sql.contains("t.a IN (1, 2)"));
        assert!(sql.contains("t.b BETWEEN 5 AND 10"));
    }

    #[test]
    fn select_star_fallback_without_aggregates() {
        let q = QuerySpec { tables: vec![TableRef::plain("t")], ..QuerySpec::default() };
        assert_eq!(render_sql(&q), "SELECT t.* FROM t");
    }

    #[test]
    fn reserved_and_cased_identifiers_are_quoted() {
        assert_eq!(quote_ident("c_nation"), "c_nation");
        assert_eq!(quote_ident("order"), "\"order\"", "reserved word");
        assert_eq!(quote_ident("Lineitem"), "\"Lineitem\"", "would fold to lower case");
        assert_eq!(quote_ident("odd name"), "\"odd name\"");
        assert_eq!(quote_ident("a\"b"), "\"a\"\"b\"", "embedded quote doubles");
        let q = QuerySpec {
            tables: vec![TableRef::plain("order")],
            predicates: vec![Predicate {
                table_alias: "order".into(),
                column: "total".into(),
                op: CmpOp::Gt,
                literal: "5".into(),
                sel_est: 0.3,
                sel_true: 0.3,
            }],
            ..QuerySpec::default()
        };
        assert_eq!(render_sql(&q), "SELECT \"order\".* FROM \"order\" WHERE \"order\".total > 5");
    }
}
