;;; Numeric kernels in the paper's dialect: Horner evaluation and the
;;; worked Section 7 flavor of float arithmetic.  Compile with
;;;   python -m repro batch examples/polynomial.lisp --trace trace.json

(defun poly-eval (x n)
  ;; Horner evaluation of 1 + x + x^2 + ... + x^n
  (declare (single-float x))
  (let ((acc 0.0))
    (dotimes (i n acc)
      (setq acc (+$f (*$f acc x) 1.0)))))

(defun quadratic (a b c x)
  (declare (single-float a) (single-float b) (single-float c)
           (single-float x))
  (+$f (*$f a (*$f x x)) (+$f (*$f b x) c 0.0)))

(defun average3 (a b c)
  (declare (single-float a) (single-float b) (single-float c))
  (/$f (+$f a b c) 3.0))
