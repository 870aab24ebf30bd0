//! Counter query results.

/// The value returned by querying a counter.
#[derive(Debug, Clone, PartialEq)]
pub enum CounterValue {
    /// A monotone count or gauge.
    Int(i64),
    /// A derived value such as an average or a ratio.
    Float(f64),
    /// An array-of-values counter (histograms): HPX wire layout
    /// `[min, max, buckets, underflow, b0 … bN-1, overflow]`.
    Array(Vec<u64>),
}

impl CounterValue {
    /// The value as `f64` (arrays yield their total sample count, i.e. the
    /// sum of underflow + buckets + overflow).
    pub fn as_f64(&self) -> f64 {
        match self {
            CounterValue::Int(v) => *v as f64,
            CounterValue::Float(v) => *v,
            CounterValue::Array(a) => a.iter().skip(3).sum::<u64>() as f64,
        }
    }

    /// The value as `i64` if it is an [`CounterValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            CounterValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as the raw array if it is an [`CounterValue::Array`].
    pub fn as_array(&self) -> Option<&[u64]> {
        match self {
            CounterValue::Array(a) => Some(a),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(CounterValue::Int(7).as_f64(), 7.0);
        assert_eq!(CounterValue::Float(2.5).as_f64(), 2.5);
        assert_eq!(CounterValue::Int(7).as_int(), Some(7));
        assert_eq!(CounterValue::Float(2.5).as_int(), None);
    }

    #[test]
    fn array_as_f64_counts_samples() {
        // min=0, max=10, buckets=2, underflow=1, b0=2, b1=3, overflow=4
        let v = CounterValue::Array(vec![0, 10, 2, 1, 2, 3, 4]);
        assert_eq!(v.as_f64(), 10.0);
        assert_eq!(v.as_array().unwrap().len(), 7);
        assert_eq!(CounterValue::Int(1).as_array(), None);
    }
}
