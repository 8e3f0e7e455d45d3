//! Shape utilities: strides, index arithmetic, broadcasting.

/// Computes row-major strides for a shape.
pub(crate) fn strides(shape: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * shape[i + 1];
    }
    s
}

/// Total number of elements of a shape.
pub(crate) fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Converts a multi-index to a flat row-major offset.
///
/// # Panics
///
/// Panics if the index rank or any coordinate is out of range.
pub fn flatten_index(shape: &[usize], index: &[usize]) -> usize {
    assert_eq!(shape.len(), index.len(), "index rank mismatch");
    let mut off = 0;
    let st = strides(shape);
    for ((i, dim), s) in index.iter().zip(shape).zip(&st) {
        assert!(i < dim, "index {i} out of range for dim {dim}");
        off += i * s;
    }
    off
}

/// Converts a flat offset to a multi-index.
pub fn unflatten_index(shape: &[usize], mut off: usize) -> Vec<usize> {
    let st = strides(shape);
    let mut idx = Vec::with_capacity(shape.len());
    for s in &st {
        idx.push(off / s);
        off %= s;
    }
    idx
}

/// Computes the broadcast shape of two shapes (numpy rules).
///
/// Returns `None` if the shapes are incompatible.
pub fn broadcast_shape(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let rank = a.len().max(b.len());
    let mut out = Vec::with_capacity(rank);
    for i in 0..rank {
        let da = if i < rank - a.len() {
            1
        } else {
            a[i - (rank - a.len())]
        };
        let db = if i < rank - b.len() {
            1
        } else {
            b[i - (rank - b.len())]
        };
        if da == db || da == 1 || db == 1 {
            out.push(da.max(db));
        } else {
            return None;
        }
    }
    Some(out)
}

/// Maps an index in the broadcast output back to an index in an input of
/// shape `src` (which broadcasts to `dst`).
pub(crate) fn broadcast_index(src: &[usize], dst_index: &[usize]) -> Vec<usize> {
    let offset = dst_index.len() - src.len();
    src.iter()
        .enumerate()
        .map(|(i, &d)| if d == 1 { 0 } else { dst_index[i + offset] })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides(&[5]), vec![1]);
        assert_eq!(strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn flat_roundtrip() {
        let shape = [3, 4, 5];
        for off in [0usize, 1, 19, 59] {
            let idx = unflatten_index(&shape, off);
            assert_eq!(flatten_index(&shape, &idx), off);
        }
    }

    #[test]
    fn broadcasting_rules() {
        assert_eq!(broadcast_shape(&[3, 1], &[1, 4]), Some(vec![3, 4]));
        assert_eq!(broadcast_shape(&[5], &[2, 5]), Some(vec![2, 5]));
        assert_eq!(broadcast_shape(&[2, 3], &[3, 2]), None);
        assert_eq!(broadcast_shape(&[1], &[7]), Some(vec![7]));
    }

    #[test]
    fn broadcast_index_maps_ones_to_zero() {
        // src [3,1] -> dst [3,4]; dst index (2,3) -> src (2,0).
        assert_eq!(broadcast_index(&[3, 1], &[2, 3]), vec![2, 0]);
        // src [5] -> dst [2,5]; dst (1,4) -> src (4).
        assert_eq!(broadcast_index(&[5], &[1, 4]), vec![4]);
    }
}
