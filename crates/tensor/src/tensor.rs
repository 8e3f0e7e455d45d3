//! The generic dense tensor container.

use crate::shape::{broadcast_index, broadcast_shape, flatten_index, numel, unflatten_index};

/// A dense row-major n-dimensional tensor.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor<T> {
    shape: Vec<usize>,
    data: Vec<T>,
}

impl<T: Clone> Tensor<T> {
    /// Creates a tensor from a shape and row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape volume.
    pub fn new(shape: Vec<usize>, data: Vec<T>) -> Self {
        assert_eq!(numel(&shape), data.len(), "shape/data mismatch");
        Self { shape, data }
    }

    /// Creates a tensor filled with a value.
    pub fn full(shape: Vec<usize>, value: T) -> Self {
        let n = numel(&shape);
        Self {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a rank-1 tensor.
    pub fn from_vec(data: Vec<T>) -> Self {
        Self {
            shape: vec![data.len()],
            data,
        }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat view.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Element access by multi-index.
    pub fn get(&self, index: &[usize]) -> &T {
        &self.data[flatten_index(&self.shape, index)]
    }

    /// Reshapes without moving data.
    ///
    /// # Panics
    ///
    /// Panics if the volumes differ.
    pub fn reshape(&self, shape: Vec<usize>) -> Self {
        assert_eq!(numel(&shape), self.data.len(), "reshape volume mismatch");
        Self {
            shape,
            data: self.data.clone(),
        }
    }

    /// Permutes axes.
    pub fn transpose(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.shape.len(), "permutation rank mismatch");
        let new_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let mut data = Vec::with_capacity(self.data.len());
        for off in 0..self.data.len() {
            let new_idx = unflatten_index(&new_shape, off);
            let mut old_idx = vec![0usize; perm.len()];
            for (new_axis, &old_axis) in perm.iter().enumerate() {
                old_idx[old_axis] = new_idx[new_axis];
            }
            data.push(self.get(&old_idx).clone());
        }
        Self {
            shape: new_shape,
            data,
        }
    }

    /// Extracts the half-open box `[starts, ends)`.
    pub fn slice(&self, starts: &[usize], ends: &[usize]) -> Self {
        assert_eq!(starts.len(), self.shape.len());
        assert_eq!(ends.len(), self.shape.len());
        let new_shape: Vec<usize> = starts
            .iter()
            .zip(ends)
            .map(|(s, e)| {
                assert!(s <= e, "slice start after end");
                e - s
            })
            .collect();
        let mut data = Vec::with_capacity(numel(&new_shape));
        for off in 0..numel(&new_shape) {
            let rel = unflatten_index(&new_shape, off);
            let abs: Vec<usize> = rel.iter().zip(starts).map(|(r, s)| r + s).collect();
            data.push(self.get(&abs).clone());
        }
        Self {
            shape: new_shape,
            data,
        }
    }

    /// Concatenates tensors along an axis.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree off-axis or the list is empty.
    pub fn concat(parts: &[&Tensor<T>], axis: usize) -> Self {
        assert!(!parts.is_empty(), "concat of nothing");
        let mut shape = parts[0].shape.clone();
        for p in &parts[1..] {
            assert_eq!(p.shape.len(), shape.len(), "concat rank mismatch");
            for (d, (a, b)) in shape.iter().zip(&p.shape).enumerate() {
                assert!(d == axis || a == b, "concat off-axis shape mismatch");
            }
            shape[axis] += p.shape[axis];
        }
        let mut out = Vec::with_capacity(numel(&shape));
        for off in 0..numel(&shape) {
            let mut idx = unflatten_index(&shape, off);
            let mut k = idx[axis];
            let mut part = 0;
            while k >= parts[part].shape[axis] {
                k -= parts[part].shape[axis];
                part += 1;
            }
            idx[axis] = k;
            out.push(parts[part].get(&idx).clone());
        }
        Self { shape, data: out }
    }

    /// Pads with a constant value: `pads[axis] = (before, after)`.
    pub fn pad(&self, pads: &[(usize, usize)], value: T) -> Self {
        assert_eq!(pads.len(), self.shape.len());
        let shape: Vec<usize> = self
            .shape
            .iter()
            .zip(pads)
            .map(|(d, (b, a))| d + b + a)
            .collect();
        let mut data = Vec::with_capacity(numel(&shape));
        for off in 0..numel(&shape) {
            let idx = unflatten_index(&shape, off);
            let mut inner = Vec::with_capacity(idx.len());
            let mut inside = true;
            for ((i, (b, _)), d) in idx.iter().zip(pads).zip(&self.shape) {
                if *i < *b || *i >= b + d {
                    inside = false;
                    break;
                }
                inner.push(i - b);
            }
            data.push(if inside {
                self.get(&inner).clone()
            } else {
                value.clone()
            });
        }
        Self { shape, data }
    }

    /// Broadcasts to a larger shape (numpy rules).
    pub fn broadcast_to(&self, shape: &[usize]) -> Self {
        assert!(
            broadcast_shape(&self.shape, shape) == Some(shape.to_vec()),
            "cannot broadcast {:?} to {:?}",
            self.shape,
            shape
        );
        let mut data = Vec::with_capacity(numel(shape));
        for off in 0..numel(shape) {
            let idx = unflatten_index(shape, off);
            let src = broadcast_index(&self.shape, &idx);
            data.push(self.get(&src).clone());
        }
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Applies a function elementwise.
    pub fn map<U: Clone>(&self, f: impl Fn(&T) -> U) -> Tensor<U> {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Combines two tensors elementwise with broadcasting.
    pub fn zip<U: Clone, V: Clone>(&self, other: &Tensor<U>, f: impl Fn(&T, &U) -> V) -> Tensor<V> {
        let shape = broadcast_shape(&self.shape, &other.shape)
            .unwrap_or_else(|| panic!("zip: {:?} vs {:?}", self.shape, other.shape));
        let mut data = Vec::with_capacity(numel(&shape));
        for off in 0..numel(&shape) {
            let idx = unflatten_index(&shape, off);
            let a = self.get(&broadcast_index(&self.shape, &idx));
            let b = other.get(&broadcast_index(&other.shape, &idx));
            data.push(f(a, b));
        }
        Tensor { shape, data }
    }

    /// Removes a size-1 axis.
    pub fn squeeze(&self, axis: usize) -> Self {
        assert_eq!(self.shape[axis], 1, "squeeze of non-unit axis");
        let mut shape = self.shape.clone();
        shape.remove(axis);
        Self {
            shape,
            data: self.data.clone(),
        }
    }

    /// Inserts a size-1 axis.
    pub fn expand_dims(&self, axis: usize) -> Self {
        let mut shape = self.shape.clone();
        shape.insert(axis, 1);
        Self {
            shape,
            data: self.data.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t123() -> Tensor<i64> {
        Tensor::new(vec![2, 3], vec![1, 2, 3, 4, 5, 6])
    }

    #[test]
    fn indexing() {
        let t = t123();
        assert_eq!(*t.get(&[0, 0]), 1);
        assert_eq!(*t.get(&[1, 2]), 6);
    }

    #[test]
    fn transpose_2d() {
        let t = t123().transpose(&[1, 0]);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data(), &[1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn transpose_3d_roundtrip() {
        let t = Tensor::new(vec![2, 3, 4], (0..24i64).collect());
        let p = t.transpose(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(*p.get(&[3, 1, 2]), *t.get(&[1, 2, 3]));
        let back = p.transpose(&[1, 2, 0]);
        assert_eq!(back, t);
    }

    #[test]
    fn slicing() {
        let t = t123();
        let s = t.slice(&[0, 1], &[2, 3]);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[2, 3, 5, 6]);
    }

    #[test]
    fn concat_axis0_and_1() {
        let a = t123();
        let b = t123();
        let c = Tensor::concat(&[&a, &b], 0);
        assert_eq!(c.shape(), &[4, 3]);
        assert_eq!(*c.get(&[3, 2]), 6);
        let d = Tensor::concat(&[&a, &b], 1);
        assert_eq!(d.shape(), &[2, 6]);
        assert_eq!(*d.get(&[1, 5]), 6);
        assert_eq!(*d.get(&[1, 2]), 6);
        assert_eq!(*d.get(&[1, 3]), 4);
    }

    #[test]
    fn padding() {
        let t = t123().pad(&[(1, 0), (0, 2)], 0);
        assert_eq!(t.shape(), &[3, 5]);
        assert_eq!(*t.get(&[0, 0]), 0);
        assert_eq!(*t.get(&[1, 0]), 1);
        assert_eq!(*t.get(&[2, 4]), 0);
        assert_eq!(*t.get(&[2, 2]), 6);
    }

    #[test]
    fn broadcast_and_zip() {
        let a = Tensor::new(vec![2, 1], vec![10i64, 20]);
        let b = Tensor::new(vec![3], vec![1i64, 2, 3]);
        let s = a.zip(&b, |x, y| x + y);
        assert_eq!(s.shape(), &[2, 3]);
        assert_eq!(s.data(), &[11, 12, 13, 21, 22, 23]);
    }

    #[test]
    fn squeeze_expand() {
        let t = Tensor::new(vec![1, 3], vec![1i64, 2, 3]);
        let s = t.squeeze(0);
        assert_eq!(s.shape(), &[3]);
        let e = s.expand_dims(1);
        assert_eq!(e.shape(), &[3, 1]);
    }

    #[test]
    #[should_panic(expected = "reshape volume mismatch")]
    fn bad_reshape_panics() {
        t123().reshape(vec![4, 2]);
    }
}
