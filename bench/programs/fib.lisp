;;; Call-heavy fixnum control: CALL/RET and generic arithmetic, no floats.

(defun fib (n)
  (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
